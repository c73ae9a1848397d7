package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/faultinject"
)

// ErrCorrupt marks every integrity failure this package can detect: a
// checksum mismatch, a torn tail on a sealed file, or a gob stream that
// does not decode. Callers distinguish "the data on disk is bad" (fall
// back to an older copy, recompute, quarantine) from environmental
// errors (missing file, permissions) with errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("persist: data corrupt")

// footerMagic terminates every sealed file. Putting the magic at the very
// end makes sealed files self-describing from the tail: a file that does
// not end in the magic either lost its tail to a torn write or was never
// sealed.
const footerMagic = "RPRSEAL1"

// footerSize is the fixed footer layout appended after the payload:
//
//	[ CRC32-IEEE(payload)  4 bytes LE ]
//	[ SHA-256(payload)    32 bytes    ]
//	[ len(payload)         8 bytes LE ]
//	[ footerMagic          8 bytes    ]
//
// CRC32 is the cheap first-line check; SHA-256 catches the multi-bit and
// splice corruptions CRC32 can alias on.
const footerSize = 4 + sha256.Size + 8 + 8

// Seal appends the integrity footer to a payload. The result is what
// sealed writers put on disk; Unseal verifies and strips it.
func Seal(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+footerSize)
	out = append(out, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	out = append(out, crc[:]...)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(payload)))
	out = append(out, n[:]...)
	return append(out, footerMagic...)
}

// hasFooter reports whether data ends in the sealed-file magic.
func hasFooter(data []byte) bool {
	return len(data) >= footerSize && string(data[len(data)-8:]) == footerMagic
}

// Unseal verifies a sealed byte stream and returns the payload. Every
// failure mode — missing footer, length mismatch, CRC32 or SHA-256
// mismatch — is reported as a wrapped ErrCorrupt.
func Unseal(data []byte) ([]byte, error) {
	if !hasFooter(data) {
		return nil, fmt.Errorf("%w: integrity footer missing (torn tail?)", ErrCorrupt)
	}
	payload := data[:len(data)-footerSize]
	foot := data[len(data)-footerSize:]
	wantCRC := binary.LittleEndian.Uint32(foot[:4])
	wantSHA := foot[4 : 4+sha256.Size]
	wantLen := binary.LittleEndian.Uint64(foot[4+sha256.Size : 4+sha256.Size+8])
	if wantLen != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: footer says %d payload bytes, file holds %d", ErrCorrupt, wantLen, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, fmt.Errorf("%w: CRC32 mismatch", ErrCorrupt)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], wantSHA) {
		return nil, fmt.Errorf("%w: SHA-256 mismatch", ErrCorrupt)
	}
	return payload, nil
}

// MarshalSealed gob-encodes a value (with the sealed-format header) and
// appends the integrity footer — the byte-for-byte content of a file
// written by Save.
func MarshalSealed(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(magicSealed); err != nil {
		return nil, fmt.Errorf("persist: header: %w", err)
	}
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("persist: body: %w", err)
	}
	return Seal(buf.Bytes()), nil
}

// UnmarshalSealed verifies and decodes bytes produced by MarshalSealed.
func UnmarshalSealed(data []byte, v any) error {
	return unseal(data, v)
}

// WriteFileAtomic publishes data at path with the write-rename protocol:
// the bytes land in a sibling temp file first, so readers only ever see
// the previous complete file or the new one. faultSite, when non-empty,
// names a faultinject site checked after the temp file is complete but
// before the rename — a fired fault models a crash-before-publish, and
// the destination must be untouched.
func WriteFileAtomic(path string, data []byte, faultSite string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if faultSite != "" {
		if err := faultinject.At(faultSite); err != nil {
			os.Remove(tmp)
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
