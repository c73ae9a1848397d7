package persist

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gobwire"
)

// ioBufSize is the buffer between the gob codecs and the file in both
// directions: large enough to keep syscalls rare, small enough that a
// sealed file of any size costs a constant amount of memory to stream.
const ioBufSize = 64 << 10

// errClosed is what a Writer returns once Close has succeeded.
var errClosed = errors.New("persist: writer closed")

// Writer streams gob values into a sealed file. The header, every Encode
// and the footer pass through one gob encoder and a fixed-size buffer
// into a sibling temp file while the footer's CRC32, SHA-256 and length
// accumulate; Close appends the footer and publishes the file with the
// write-rename protocol. No value, and no file image, is ever held in
// memory as a whole. Every failure removes the temp file and leaves the
// destination untouched.
type Writer struct {
	s    sealer
	enc  *gob.Encoder
	err  error // first failure (or errClosed); every later call returns it
	size int64
	sum  [sha256.Size]byte

	// File-backed writers only (nil/empty for MarshalSealed's).
	f         *os.File
	bw        *bufio.Writer
	path      string
	faultSite string
}

// Create starts a sealed file at path. The persist.save fault site sits
// between the complete temp file and the rename, modeling a crash after
// the bytes are written but before they are published.
func Create(path string) (*Writer, error) {
	return CreateAt(path, "persist.save")
}

// CreateAt is Create with the caller's fault site ("" for none).
func CreateAt(path, faultSite string) (*Writer, error) {
	f, err := createTemp(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, ioBufSize)
	w := &Writer{f: f, bw: bw, path: path, faultSite: faultSite}
	if err := w.start(bw); err != nil {
		return nil, err
	}
	return w, nil
}

// start points the writer at out and encodes the stream header.
func (w *Writer) start(out io.Writer) error {
	w.s = newSealer(out)
	w.enc = gob.NewEncoder(&w.s)
	if err := w.enc.Encode(magicSealed); err != nil {
		return w.fail(fmt.Errorf("persist: header: %w", err))
	}
	return nil
}

// Encode appends one gob value to the stream. A failure abandons the
// file: the temp file is removed and Close returns the same error.
func (w *Writer) Encode(v any) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.Encode(v); err != nil {
		return w.fail(fmt.Errorf("persist: body: %w", err))
	}
	return nil
}

// Close appends the integrity footer and, for a file, publishes it:
// flush, close, the fault site, then the rename over the destination.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	size, sum, err := w.s.finish()
	if err != nil {
		return w.fail(err)
	}
	if w.f != nil {
		if err := w.bw.Flush(); err != nil {
			return w.fail(err)
		}
		f := w.f
		w.f = nil // publish owns the temp file from here on
		if err := publish(f, w.path, w.faultSite); err != nil {
			w.err = err
			return err
		}
	}
	w.size, w.sum, w.err = size, sum, errClosed
	return nil
}

// fail records the writer's first error and removes its temp file.
func (w *Writer) fail(err error) error {
	w.err = err
	if w.f != nil {
		discard(w.f)
		w.f = nil
	}
	return err
}

// Size reports the complete sealed image's length (after Close).
func (w *Writer) Size() int64 { return w.size }

// SHA256 reports the hex SHA-256 of the complete sealed image, footer
// included (after Close) — what manifests pin.
func (w *Writer) SHA256() string { return hex.EncodeToString(w.sum[:]) }

// Reader decodes gob values from a sealed file, verified before its
// first value is decoded. A file opened with Open is streamed: one pass
// verifies the footer, a second decodes through a fixed-size buffer,
// over the same descriptor, so a rename over the path in between is
// harmless — but an overwrite of the file in place between the passes
// would be decoded unverified. That is acceptable for checkpoints and the
// adapt sidecar, which only their own process rewrites. Bundles, which
// other processes publish, are read once into memory instead
// (readSealed): the decode may start before the hash completes, over the
// same in-memory bytes, and nothing decoded leaves the package until
// every check has passed.
type Reader struct {
	f    *os.File // the file read, held until Close
	dec  *gobwire.Decoder
	size int64
	sum  [sha256.Size]byte
}

// Open verifies the sealed file at path and positions a Reader at its
// first value. The verification pass runs through the persist.load.read
// fault site, so chaos plans can simulate partial reads and torn files.
// A file that fails its footer check — flipped byte, torn tail,
// truncation — returns a wrapped ErrCorrupt; a missing file returns the
// os error unwrapped.
func Open(path string) (*Reader, error) {
	return OpenAt(path, "persist.load.read")
}

// OpenAt is Open with the caller's fault site ("" for none).
func OpenAt(path, faultSite string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	// One streaming pass verifies f[0:size); Decode reads the values in a
	// second.
	size := st.Size()
	payload, sum, err := verify(f, size, faultSite)
	if err != nil {
		err = verifyErr(err, path, gobwire.NewDecoder(io.NewSectionReader(f, 0, size)))
		f.Close()
		return nil, err
	}
	dec := gobwire.NewDecoder(bufio.NewReaderSize(io.NewSectionReader(f, 0, payload), ioBufSize))
	if err := readHeader(dec); err != nil {
		f.Close()
		return nil, err
	}
	return &Reader{f: f, dec: dec, size: size, sum: sum}, nil
}

// presizeMax bounds the buffer readSealed reserves from a declared
// length before any byte arrives. A longer claim reserves nothing: the
// buffer then grows only as bytes actually arrive, so a sender that
// declares a large body and stalls pins no memory it never sent.
const presizeMax = 16 << 20

// readChunk is how many bytes readSealed reads at a time; the hash picks
// up each chunk as it lands.
const readChunk = 256 << 10

// sealedImage is a sealed image readSealed read and verified.
type sealedImage struct {
	data []byte            // the whole image, footer included
	sum  [sha256.Size]byte // of data
	// verifyWait is how long the decode, once done, waited for the
	// hash to finish; 0 when the hash finished first.
	verifyWait time.Duration
	// decodeErr is the decode's verdict, a wrapped ErrCorrupt. It ranks
	// after every check the caller makes on the verified image (the
	// SHA-256 a manifest pins), so readSealed leaves it to the caller.
	decodeErr error
}

// sha256 is the hex SHA-256 of the whole image.
func (img *sealedImage) sha256() string { return hex.EncodeToString(img.sum[:]) }

// readSealed reads a sealed image from in to its end and decodes its
// first value into v, in one pass. One goroutine (the caller's) reads
// the image into a single buffer, readChunk bytes at a time; a second
// hashes each chunk for the footer's CRC32 and SHA-256 as soon as it
// lands (hashAsRead). Once the last byte is in, v is decoded from the
// same in-memory bytes while the hash finishes. A failed read, footer or
// header check takes precedence over whatever the decode did; v must
// not be used unless every check passes. Decoding bytes not yet
// verified stays bounded: gobwire checks every count against the bytes
// left before it allocates. declared, when positive and at most
// presizeMax, sizes the buffer once; it is a hint, and the image is
// whatever in holds. name labels errors; a failed read is a ReadError.
func readSealed(in io.Reader, declared int64, name string, v any) (*sealedImage, error) {
	// Room for every chunk of a pre-sized image, so the read never waits
	// on a hash that lags behind it: the decode starts when the read ends.
	prefixes := make(chan []byte, presizeMax/readChunk)
	hashed := make(chan verdict, 1)
	go func() { hashed <- hashAsRead(prefixes) }()
	data, err := readChunks(in, declared, prefixes)
	if err != nil {
		<-hashed
		return nil, verifyErr(err, name, nil)
	}
	img := &sealedImage{data: data}
	var headErr error
	if payload := len(data) - footerSize; payload >= 0 {
		dec := gobwire.NewBytesDecoder(data[:payload])
		if headErr = readHeader(dec); headErr == nil {
			if err := dec.Decode(v); err != nil {
				img.decodeErr = fmt.Errorf("persist: body: %w (%w)", err, ErrCorrupt)
			}
		}
	}
	var vd verdict
	select {
	case vd = <-hashed:
	default:
		t0 := time.Now()
		vd = <-hashed
		img.verifyWait = time.Since(t0)
	}
	if vd.err != nil {
		return nil, verifyErr(vd.err, name, gobwire.NewBytesDecoder(data))
	}
	if headErr != nil {
		return nil, headErr
	}
	img.sum = vd.sum
	return img, nil
}

// readChunks reads in to its end into one buffer, sending the image read
// so far on prefixes after every readChunk bytes and once more, whole,
// at the end; it closes prefixes when it returns, however it returns. A
// declared length within presizeMax sizes the buffer once, with the
// bytes.MinRead of spare room a read needs to see the end without
// growing it.
func readChunks(in io.Reader, declared int64, prefixes chan<- []byte) ([]byte, error) {
	defer close(prefixes)
	var buf []byte
	if declared > 0 && declared <= presizeMax {
		buf = make([]byte, 0, declared+bytes.MinRead)
	}
	sent := 0
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, readChunk)
		}
		n, err := in.Read(buf[len(buf):min(cap(buf), len(buf)+readChunk)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			prefixes <- buf
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf)-sent >= readChunk {
			prefixes <- buf
			sent = len(buf)
		}
	}
}

// ReadError is a sealed image that could not be read to its end: a
// failed or injected read, or a body cut off or over its size cap. Every
// other error a load returns is about bytes that were read.
type ReadError struct {
	Name string
	Err  error
}

func (e *ReadError) Error() string { return fmt.Sprintf("persist: read %s: %v", e.Name, e.Err) }

func (e *ReadError) Unwrap() error { return e.Err }

// verifyErr reports a failed verification. A torn sealed file still
// starts with the sealed header, read through whole; anything else is
// not a sealed stream at all (bad magic). Read errors are labelled with
// name.
func verifyErr(err error, name string, whole *gobwire.Decoder) error {
	switch {
	case errors.Is(err, errNoFooter) && whole != nil:
		if herr := readHeader(whole); herr != nil {
			return herr
		}
		return fmt.Errorf("%w: sealed file lost its integrity footer (torn tail)", ErrCorrupt)
	case errors.Is(err, ErrCorrupt):
		return err
	}
	return &ReadError{Name: name, Err: err}
}

// Decode reads the next gob value into v (a pointer). Running out of
// values, or a value that does not decode, is a wrapped ErrCorrupt.
func (r *Reader) Decode(v any) error {
	if err := r.dec.Decode(v); err != nil {
		return fmt.Errorf("persist: body: %w (%w)", err, ErrCorrupt)
	}
	return nil
}

// Close releases the file.
func (r *Reader) Close() error { return r.f.Close() }

// Size reports the sealed image's length, footer included.
func (r *Reader) Size() int64 { return r.size }

// SHA256 reports the hex SHA-256 of the whole verified image, computed in
// the same pass that checked the footer.
func (r *Reader) SHA256() string { return hex.EncodeToString(r.sum[:]) }

// MarshalSealed gob-encodes a value (with the sealed-format header) and
// appends the integrity footer — the byte-for-byte content of a file
// written by Save.
func MarshalSealed(v any) ([]byte, error) {
	var buf bytes.Buffer
	var w Writer
	if err := w.start(&buf); err != nil {
		return nil, err
	}
	if err := w.Encode(v); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalSealed verifies and decodes bytes produced by MarshalSealed,
// through the one-pass reader bundles are loaded with.
func UnmarshalSealed(data []byte, v any) error {
	img, err := readSealed(bytes.NewReader(data), int64(len(data)), "sealed image", v)
	if err != nil {
		return err
	}
	return img.decodeErr
}

// WriteFileAtomic publishes data at path with the write-rename protocol:
// the bytes land in a sibling temp file first, so readers only ever see
// the previous complete file or the new one. faultSite, when non-empty,
// names a faultinject site checked after the temp file is complete but
// before the rename — a fired fault models a crash-before-publish, and
// the destination must be untouched. A failed write removes the temp
// file.
func WriteFileAtomic(path string, data []byte, faultSite string) error {
	f, err := createTemp(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		discard(f)
		return err
	}
	return publish(f, path, faultSite)
}

// createTemp opens path's sibling temp file for writing.
func createTemp(path string) (*os.File, error) {
	return os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// publish closes a complete temp file, checks the fault site and renames
// the file over path. Every error removes the temp file; an injected
// panic leaves it behind, as a crash would.
func publish(f *os.File, path, faultSite string) error {
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if faultSite != "" {
		if err := faultinject.At(faultSite); err != nil {
			os.Remove(f.Name())
			return err
		}
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

// discard abandons an unpublished temp file.
func discard(f *os.File) {
	f.Close()
	os.Remove(f.Name())
}
