package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/faultinject"
	"repro/internal/gobwire"
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

// TestReadSealedVerifiedAsItReads: however the bytes arrive — in one read,
// half reads, one byte at a time, or with the last bytes carrying EOF —
// and whatever length is declared, readSealed returns the image, its
// SHA-256 and its value as the in-place verify and decode do, for images
// on either side of every chunk boundary. A flipped byte anywhere fails
// with the in-place verify's error and no value.
func TestReadSealedVerifiedAsItReads(t *testing.T) {
	readers := map[string]func([]byte) io.Reader{
		"whole":    func(b []byte) io.Reader { return bytes.NewReader(b) },
		"half":     func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"data+EOF": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"one byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
	}
	for _, floats := range []int{0, readChunk/8 - 12, readChunk / 8, 3*readChunk/8 + 5} {
		want := sealedPayload{Name: "chunked", Vals: make([]float64, floats)}
		for i := range want.Vals {
			want.Vals[i] = float64(i) * 0.5
		}
		image, err := MarshalSealed(&want)
		if err != nil {
			t.Fatal(err)
		}
		_, wantSum, _ := verifyImage(image)
		for name, reader := range readers {
			if name == "one byte" && len(image) > readChunk {
				continue
			}
			for _, declared := range []int64{int64(len(image)), 0, int64(len(image)) / 2, presizeMax + 1} {
				var got sealedPayload
				img, err := readSealed(reader(image), declared, "image", &got)
				if err == nil {
					err = img.decodeErr
				}
				if err != nil {
					t.Fatalf("%d floats, %s reads, declared %d: %v", floats, name, declared, err)
				}
				if !bytes.Equal(img.data, image) || img.sum != wantSum || got.Name != want.Name || len(got.Vals) != floats {
					t.Fatalf("%d floats, %s reads, declared %d: image, sum or value differ", floats, name, declared)
				}
			}
		}
		for _, at := range []int{0, len(image) / 2, len(image) - footerSize, len(image) - 1} {
			bad := append([]byte(nil), image...)
			bad[at] ^= 0x10
			_, _, verr := verifyImage(bad)
			wantErr := verifyErr(verr, "image", gobwire.NewBytesDecoder(bad))
			var got sealedPayload
			img, err := readSealed(iotest.HalfReader(bytes.NewReader(bad)), int64(len(bad)), "image", &got)
			if img != nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%d floats, byte %d flipped: %v, want %v", floats, at, err, wantErr)
			}
		}
	}
}
