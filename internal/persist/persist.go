// Package persist saves and loads trained models as gob streams: SVM
// language models, GMMs (including the UBM and acoustic emissions), TFLLR
// scalers, phone language models, and fusion backends. Values are encoded
// with encoding/gob and decoded with internal/gobwire. A production
// deployment trains once and scores many times; this package is the
// boundary between the two.
//
// Every file this package writes is *sealed*: the gob stream carries a
// v2 header and the file ends in a CRC32 + SHA-256 + length integrity
// footer (see footer.go), so a flipped byte or a torn tail is detected at
// load time as a typed ErrCorrupt instead of decoding into garbage. The
// footerless v1 stream format is retired: its header is rejected like any
// bad magic. Writer encodes any number of values through a fixed-size
// buffer (see stream.go). Open streams a file back — one pass verifies
// the footer, a second decodes — so checkpoints and internal/adapt's
// sidecar cost bounded memory. Bundles, on disk or pushed over a socket,
// are read once into memory and hashed as their bytes arrive; the decode
// may start before the hash completes, over the same in-memory bytes,
// and nothing decoded leaves this package until every check has passed.
// Save, Load, the bundle files, the generation store's payloads
// (store.go), internal/checkpoint and internal/adapt's sidecar all go
// through them.
package persist

import (
	"fmt"

	"repro/internal/gobwire"
)

// magicSealed heads every stream this package writes. It declares that
// an integrity footer follows the gob body, so a stream with this header
// and no valid footer lost its tail.
const magicSealed = "repro-model-v2"

// readHeader decodes the stream header and checks its magic.
func readHeader(dec *gobwire.Decoder) error {
	var got string
	if err := dec.Decode(&got); err != nil {
		return fmt.Errorf("persist: header: %w (%w)", err, ErrCorrupt)
	}
	if got != magicSealed {
		return fmt.Errorf("persist: bad magic %q (want %q)", got, magicSealed)
	}
	return nil
}

// Save writes a model to a file: one sealed gob value (v2 header +
// integrity footer) streamed into a temp file and published atomically by
// rename. A fired persist.save fault, like any error, leaves the
// destination untouched.
func Save(path string, v any) error {
	_, err := saveAt(path, "persist.save", v)
	return err
}

// saveAt streams one value into a sealed file at path; the returned
// writer is closed and reports the file's Size and SHA256.
func saveAt(path, faultSite string, v any) (*Writer, error) {
	w, err := CreateAt(path, faultSite)
	if err != nil {
		return nil, err
	}
	if err := w.Encode(v); err != nil {
		return nil, err
	}
	return w, w.Close()
}

// Load reads a model from a file into v (a pointer), verifying the whole
// file before decoding it (see Open): a sealed file that fails its footer
// check returns a wrapped ErrCorrupt, never a panic or garbage decode.
func Load(path string, v any) error {
	r, err := Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	return r.Decode(v)
}
