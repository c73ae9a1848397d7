package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/faultinject"
)

// ErrCorrupt marks every integrity failure this package can detect: a
// checksum mismatch, a torn tail on a sealed file, or a gob stream that
// does not decode. Callers distinguish "the data on disk is bad" (fall
// back to an older copy, recompute, quarantine) from environmental
// errors (missing file, permissions) with errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("persist: data corrupt")

// errNoFooter: the image does not end in the footer magic — a sealed
// file whose tail was torn off, or not a sealed image at all.
var errNoFooter = fmt.Errorf("%w: integrity footer missing (torn tail?)", ErrCorrupt)

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

// sealer computes the footer: payload bytes pass through it to out while
// their CRC32, SHA-256 and count accumulate, and finish appends the
// footer. It never holds more than the caller's current write. Writer and
// Seal write through it; verify recomputes the checksums with it.
type sealer struct {
	out io.Writer
	crc hash.Hash32
	sha hash.Hash
	n   int64
}

func newSealer(out io.Writer) sealer {
	return sealer{out: out, crc: crc32.NewIEEE(), sha: sha256.New()}
}

func (s *sealer) Write(p []byte) (int, error) {
	n, err := s.out.Write(p)
	s.crc.Write(p[:n])
	s.sha.Write(p[:n])
	s.n += int64(n)
	return n, err
}

// finish appends the footer and returns the complete image's size and
// SHA-256.
func (s *sealer) finish() (int64, [sha256.Size]byte, error) {
	var foot [footerSize]byte
	binary.LittleEndian.PutUint32(foot[:4], s.crc.Sum32())
	s.sha.Sum(foot[4:4])
	binary.LittleEndian.PutUint64(foot[4+sha256.Size:], uint64(s.n))
	copy(foot[footerSize-8:], footerMagic)
	if _, err := s.out.Write(foot[:]); err != nil {
		return 0, [sha256.Size]byte{}, err
	}
	return s.n + footerSize, imageSum(s.sha, foot[:]), nil
}

// imageSum finishes the whole-image SHA-256 (payload + footer) from the
// payload hash's running state, so neither side hashes the payload twice.
func imageSum(payload hash.Hash, foot []byte) (sum [sha256.Size]byte) {
	state, err := payload.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err) // crypto/sha256 always marshals its state
	}
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic(err)
	}
	h.Write(foot)
	h.Sum(sum[:0])
	return sum
}

// verify streams a sealed image of size bytes once — through faultSite
// when it is non-empty — and checks its footer. It returns the payload
// length and the SHA-256 of the whole image. Every integrity failure is a
// wrapped ErrCorrupt (errNoFooter when the magic is missing); a failing
// read is returned as is.
func verify(src io.ReaderAt, size int64, faultSite string) (int64, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	var in io.Reader = io.NewSectionReader(src, 0, size)
	if faultSite != "" {
		in = faultinject.Reader(faultSite, in)
	}
	payload := size - footerSize
	if payload < 0 {
		if _, err := io.Copy(io.Discard, in); err != nil {
			return 0, sum, err
		}
		return 0, sum, errNoFooter
	}
	hashes := newSealer(io.Discard)
	if _, err := io.CopyN(&hashes, in, payload); err != nil {
		return 0, sum, shortRead(err)
	}
	var foot [footerSize]byte
	if _, err := io.ReadFull(in, foot[:]); err != nil {
		return 0, sum, shortRead(err)
	}
	return checkFooter(&hashes, foot[:])
}

// verifyImage checks the footer of a sealed image held in memory, hashing
// the bytes in place; it returns what verify does.
func verifyImage(image []byte) (int64, [sha256.Size]byte, error) {
	payload := len(image) - footerSize
	if payload < 0 {
		return 0, [sha256.Size]byte{}, errNoFooter
	}
	hashes := newSealer(io.Discard)
	hashes.Write(image[:payload])
	return checkFooter(&hashes, image[payload:])
}

// checkFooter compares a footer against the checksums of the payload that
// preceded it.
func checkFooter(hashes *sealer, foot []byte) (int64, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	if string(foot[footerSize-8:]) != footerMagic {
		return 0, sum, errNoFooter
	}
	payload := hashes.n
	wantLen := binary.LittleEndian.Uint64(foot[4+sha256.Size:])
	if wantLen != uint64(payload) {
		return 0, sum, fmt.Errorf("%w: footer says %d payload bytes, file holds %d", ErrCorrupt, wantLen, payload)
	}
	if hashes.crc.Sum32() != binary.LittleEndian.Uint32(foot[:4]) {
		return 0, sum, fmt.Errorf("%w: CRC32 mismatch", ErrCorrupt)
	}
	if !bytes.Equal(hashes.sha.Sum(nil), foot[4:4+sha256.Size]) {
		return 0, sum, fmt.Errorf("%w: SHA-256 mismatch", ErrCorrupt)
	}
	return payload, imageSum(hashes.sha, foot), nil
}

// shortRead maps an image that ended before its stated size (it shrank
// while being read) to ErrCorrupt; other read errors pass through.
func shortRead(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: image ended early", ErrCorrupt)
	}
	return err
}

// Seal appends the integrity footer to a raw payload — the sealed form of
// small non-gob files such as checkpoint manifests. Gob values are sealed
// by Writer instead; Unseal verifies and strips the footer.
func Seal(payload []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(payload) + footerSize)
	s := newSealer(&buf)
	s.Write(payload)
	s.finish() // writes into a bytes.Buffer cannot fail
	return buf.Bytes()
}

// Unseal verifies a sealed byte image and returns the payload. Every
// failure mode — missing footer, length mismatch, CRC32 or SHA-256
// mismatch — is reported as a wrapped ErrCorrupt.
func Unseal(data []byte) ([]byte, error) {
	n, _, err := verifyImage(data)
	if err != nil {
		return nil, err
	}
	return data[:n], nil
}
