package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func TestWriterStreamsManyValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "multi.gob")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []sealedPayload{{Name: "a", Vals: []float64{1}}, {Name: "b"}, {Name: "c", Vals: []float64{2, 3}}}
	for i := range want {
		if err := w.Encode(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if w.Size() != int64(len(data)) || w.SHA256() != hex.EncodeToString(sum[:]) {
		t.Fatalf("writer reports %d bytes / %s, file is %d bytes / %x", w.Size(), w.SHA256(), len(data), sum)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != w.Size() || r.SHA256() != w.SHA256() {
		t.Fatalf("reader reports %d bytes / %s, writer %d / %s", r.Size(), r.SHA256(), w.Size(), w.SHA256())
	}
	for i := range want {
		var got sealedPayload
		if err := r.Decode(&got); err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got.Name != want[i].Name || len(got.Vals) != len(want[i].Vals) {
			t.Fatalf("value %d: %+v, want %+v", i, got, want[i])
		}
	}
	var extra sealedPayload
	if err := r.Decode(&extra); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode past the last value: %v, want ErrCorrupt", err)
	}
}

// TestSaveIsMarshalSealed: a single-value file is byte-identical to the
// in-memory sealed form, so manifests pinning its SHA-256 never move.
func TestSaveIsMarshalSealed(t *testing.T) {
	v := sealedPayload{Name: "fe", Vals: []float64{1.5, -2.25}}
	path := filepath.Join(t.TempDir(), "one.gob")
	if err := Save(path, &v); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := MarshalSealed(&v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, mem) {
		t.Fatalf("Save wrote %d bytes, MarshalSealed gives %d, or their bytes differ", len(file), len(mem))
	}
}

// dirNames lists a directory's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// assertUntouched fails unless dir holds only path (no *.tmp) and path
// still holds want.
func assertUntouched(t *testing.T, dir, path string, want []byte) {
	t.Helper()
	if names := dirNames(t, dir); len(names) != 1 || names[0] != filepath.Base(path) {
		t.Fatalf("directory holds %v, want only %s", names, filepath.Base(path))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failed write changed the destination")
	}
}

func TestWriterEncodeErrorRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	if err := Save(path, &sealedPayload{Name: "old"}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Encode(&sealedPayload{Name: "new", Vals: make([]float64, 1<<14)}); err != nil {
		t.Fatal(err)
	}
	encErr := w.Encode(make(chan int)) // gob cannot encode channels
	if encErr == nil {
		t.Fatal("encoding a channel succeeded")
	}
	if err := w.Close(); err != encErr {
		t.Fatalf("Close after a failed Encode: %v, want %v", err, encErr)
	}
	assertUntouched(t, dir, path, before)
}

func TestWriterSaveFaultRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	if err := Save(path, &sealedPayload{Name: "old"}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.ParsePlan("seed=1; persist.save:error:every=1,count=1")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Enable(plan)
	saveErr := Save(path, &sealedPayload{Name: "new"})
	restore()
	var inj *faultinject.InjectedError
	if !errors.As(saveErr, &inj) {
		t.Fatalf("Save under a persist.save fault: %v, want the injected error", saveErr)
	}
	assertUntouched(t, dir, path, before)
}

// TestWriteFileAtomicRemovesTempOnWriteError fails the temp file's write
// itself (its name is a link to /dev/full): the temp name must not stay
// behind and the destination must not change.
func TestWriteFileAtomicRemovesTempOnWriteError(t *testing.T) {
	if f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Skip("no /dev/full on this system")
	} else {
		f.Close()
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new"), ""); err == nil {
		t.Fatal("write to a full device succeeded")
	}
	assertUntouched(t, dir, path, []byte("old"))
}

// TestReaderDecodesTheVerifiedFile: once Open has verified a file, renaming
// another file over the path does not change what Decode returns.
func TestReaderDecodesTheVerifiedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	if err := Save(path, &sealedPayload{Name: "first"}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	other := filepath.Join(dir, "other.gob")
	if err := Save(other, &sealedPayload{Name: "second", Vals: []float64{9}}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(other, path); err != nil {
		t.Fatal(err)
	}
	var got sealedPayload
	if err := r.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "first" {
		t.Fatalf("decoded %q after the swap, want the verified file's %q", got.Name, "first")
	}
}

// TestLoadFaultedReadIsReadError: a partial read injected at
// persist.load.read fails Open with the injected error, not as corruption.
func TestLoadFaultedReadIsReadError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := Save(path, &sealedPayload{Name: "fe", Vals: make([]float64, 512)}); err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.ParsePlan("seed=1; persist.load.read:error:bytes=100,every=1,count=1,err=torn")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Enable(plan)
	var out sealedPayload
	loadErr := Load(path, &out)
	restore()
	if loadErr == nil || errors.Is(loadErr, ErrCorrupt) || !strings.Contains(loadErr.Error(), "torn") {
		t.Fatalf("faulted read: %v, want the injected read error", loadErr)
	}
	if err := Load(path, &out); err != nil || out.Name != "fe" {
		t.Fatalf("load after the fault: %v %+v", err, out)
	}
}
