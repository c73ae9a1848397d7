// Package persist saves and loads trained models with encoding/gob: SVM
// language models, GMMs (including the UBM and acoustic emissions), TFLLR
// scalers, phone language models, and fusion backends. A production
// deployment trains once and scores many times; this package is the
// boundary between the two.
//
// Files written by Save are *sealed*: the gob stream carries a v2 header
// and the file ends in a CRC32 + SHA-256 + length integrity footer (see
// footer.go), so a flipped byte or a torn tail is detected at load time
// as a typed ErrCorrupt instead of decoding into garbage. The footerless
// v1 stream format is retired: its header is rejected like any bad
// magic. internal/checkpoint reuses the same sealed format for pipeline
// snapshots.
package persist

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/faultinject"
)

// magicSealed heads every stream this package writes. It declares that
// an integrity footer follows the gob body, so a stream with this header
// and no valid footer lost its tail.
const magicSealed = "repro-model-v2"

// readHeader decodes the stream header and checks its magic.
func readHeader(dec *gob.Decoder) error {
	var got string
	if err := dec.Decode(&got); err != nil {
		return fmt.Errorf("persist: header: %w (%w)", err, ErrCorrupt)
	}
	if got != magicSealed {
		return fmt.Errorf("persist: bad magic %q (want %q)", got, magicSealed)
	}
	return nil
}

// decode reads a footer-verified payload (header + gob body) into v.
func decode(payload []byte, v any) error {
	dec := gob.NewDecoder(bytes.NewReader(payload))
	if err := readHeader(dec); err != nil {
		return err
	}
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("persist: body: %w (%w)", err, ErrCorrupt)
	}
	return nil
}

// Save writes a model to a file: sealed gob bytes (v2 header + integrity
// footer) published atomically via a temp file + rename. The persist.save
// fault site sits between the complete temp file and the rename, modeling
// a crash after the bytes are written but before they are published — the
// atomic-save contract says the destination must be untouched.
func Save(path string, v any) error {
	data, err := MarshalSealed(v)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data, "persist.save")
}

// Load reads a model from a file into v (a pointer). The read stream runs
// through the persist.load.read fault site, so chaos plans can simulate
// partial reads and torn files; a sealed file that fails its footer check
// — flipped byte, torn tail, truncation — returns a wrapped ErrCorrupt,
// never a panic or garbage decode.
func Load(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := io.ReadAll(faultinject.Reader("persist.load.read", bufio.NewReader(f)))
	if err != nil {
		return fmt.Errorf("persist: read %s: %w", path, err)
	}
	return unseal(data, v)
}

// unseal verifies and decodes a complete file image.
func unseal(data []byte, v any) error {
	if !hasFooter(data) {
		// No footer at the tail: a sealed file whose tail was torn off, or
		// not a sealed stream at all. The header tells them apart.
		if err := readHeader(gob.NewDecoder(bytes.NewReader(data))); err != nil {
			return err
		}
		return fmt.Errorf("%w: sealed file lost its integrity footer (torn tail)", ErrCorrupt)
	}
	payload, err := Unseal(data)
	if err != nil {
		return err
	}
	return decode(payload, v)
}
