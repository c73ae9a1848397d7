package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type sealedPayload struct {
	Name string
	Vals []float64
}

func TestSealUnsealRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	sealed := Seal(payload)
	if len(sealed) != len(payload)+footerSize {
		t.Fatalf("sealed length %d, want payload %d + footer %d", len(sealed), len(payload), footerSize)
	}
	got, err := Unseal(sealed)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round-trip mismatch: %q", got)
	}
}

func TestUnsealDetectsEveryFlippedByte(t *testing.T) {
	payload := []byte("integrity matters")
	sealed := Seal(payload)
	// Flip each byte of the sealed image in turn; every single-byte
	// corruption must be detected (payload via CRC/SHA, footer fields via
	// their own mismatch, magic via hasFooter).
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x40
		if _, err := Unseal(bad); err == nil {
			t.Fatalf("flipped byte %d went undetected", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped byte %d: error %v is not ErrCorrupt", i, err)
		}
	}
}

func TestSaveLoadSealedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	in := sealedPayload{Name: "fe", Vals: []float64{1.5, -2.25, 3.125}}
	if err := Save(path, &in); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var out sealedPayload
	if err := Load(path, &out); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if out.Name != in.Name || len(out.Vals) != len(in.Vals) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	for i, v := range in.Vals {
		if out.Vals[i] != v {
			t.Fatalf("value %d: %v != %v", i, out.Vals[i], v)
		}
	}
}

func TestLoadCorruptByteIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	in := sealedPayload{Name: "fe", Vals: []float64{1, 2, 3}}
	if err := Save(path, &in); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out sealedPayload
	err = Load(path, &out)
	if err == nil {
		t.Fatal("corrupt file loaded without error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", err)
	}
}

func TestLoadTornTailIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	in := sealedPayload{Name: "fe", Vals: []float64{4, 5, 6}}
	if err := Save(path, &in); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the footer plus a little of the body: the v2 header
	// survives, the footer does not — the signature of a torn write.
	torn := data[:len(data)-footerSize-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	var out sealedPayload
	err = Load(path, &out)
	if err == nil {
		t.Fatal("torn file loaded without error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", err)
	}
}

// TestLegacyV1FileRejected: the footerless v1 stream format is retired,
// so a v1 file fails with the bad-magic error instead of decoding.
func TestLegacyV1FileRejected(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode("repro-model-v1"); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&sealedPayload{Name: "old", Vals: []float64{7, 8}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.gob")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out sealedPayload
	if err := Load(path, &out); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("v1 file: err %v, want bad magic", err)
	}
	if out.Name != "" || out.Vals != nil {
		t.Fatalf("rejected v1 file still decoded into %+v", out)
	}
}

func TestWriteFileAtomicLeavesNoTmpOnSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileAtomic(path, []byte("hello"), ""); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.bin" {
		t.Fatalf("unexpected directory contents: %v", entries)
	}
}
