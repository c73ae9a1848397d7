// Package gobwire decodes encoding/gob streams. It reads the wire format
// encoding/gob writes — the same messages, type definitions and value
// encodings — into Go values through reflection, and is the only gob
// decoder the repository runs outside tests; encoding/gob stays the
// encoder and, in the referee tests, the judge of what this package must
// accept and produce.
//
// It exists for speed. encoding/gob decodes every element of a slice
// through a generic per-element step; model bundles are mostly []float64
// weights, so this package decodes []float64, integer slices and []byte
// in typed loops instead (a gob float is, in the common 8-byte case, one
// little-endian load). Everything else follows encoding/gob's decoder
// step for step, including its compatibility rules:
//
//   - fields are matched by name; fields the sender left out stay zero and
//     fields the receiver does not have are skipped, whatever their wire
//     kind, so streams written by older and later builds still decode;
//   - types implementing gob.GobDecoder (or encoding.BinaryUnmarshaler)
//     decode from their GobEncoder wire types;
//   - a message's trailing bytes after the value are ignored.
//
// Unlike encoding/gob it never allocates for a count the input cannot
// back: every slice, map and string length is checked against the bytes
// left in its message first (ErrTooLarge). Decoded values never alias the
// input: strings and byte slices are copied, and GobDecode receives a
// copy. Interface-typed Go fields are not supported (nothing here
// registers concrete types): a stream that sends one fails to decode.
// Interface values the receiver has no field for are skipped like any
// other unknown field.
package gobwire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"reflect"
)

// ErrTooLarge reports a count — slice, map, string or message length —
// larger than the input that remains to back it.
var ErrTooLarge = errors.New("gobwire: count exceeds the bytes left")

// tooBig is encoding/gob's cap on message lengths and slice byte sizes.
const tooBig = (1 << 30) << (^uint(0) >> 62)

// firstUserId is the lowest type id a stream may define.
const firstUserId = 64

// Decoder reads gob values from a stream, either an io.Reader or a byte
// slice held whole in memory. Like gob.Decoder it remembers the type
// definitions the stream has sent, so successive Decode calls read
// successive values of one stream. A Decoder is not safe for concurrent
// use.
type Decoder struct {
	r   byteReader // stream mode; nil when src holds the whole stream
	src []byte     // byte mode: the unread rest of the stream

	msg []byte // the current message
	off int    // read offset into msg
	own []byte // stream mode: the reusable message buffer

	wire    map[int32]*wireType // type definitions received, by id
	engines map[engineKey]*engine
	ignores map[int32]*engine
	depth   int // nesting depth of ignore compilation
}

type byteReader interface {
	io.Reader
	io.ByteReader
}

type engineKey struct {
	rt reflect.Type
	id int32
}

// NewDecoder returns a Decoder reading the stream from r. Messages are
// read into one reusable buffer, so memory stays bounded by the largest
// message.
func NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	d := newDecoder()
	d.r = br
	return d
}

// NewBytesDecoder returns a Decoder over a stream held in memory. It
// decodes messages in place, without copying them.
func NewBytesDecoder(data []byte) *Decoder {
	d := newDecoder()
	d.src = data
	return d
}

func newDecoder() *Decoder {
	return &Decoder{
		wire:    make(map[int32]*wireType),
		engines: make(map[engineKey]*engine),
		ignores: make(map[int32]*engine),
	}
}

// Unmarshal decodes the first value of a complete gob stream into v (a
// pointer), as encoding/gob decodes a stream's first value.
func Unmarshal(data []byte, v any) error {
	return NewBytesDecoder(data).Decode(v)
}

// Decode reads the next value from the stream into v, which must be a
// non-nil pointer. It returns io.EOF at a clean end of the stream.
func (d *Decoder) Decode(v any) (err error) {
	value := reflect.ValueOf(v)
	if value.Kind() != reflect.Pointer || value.IsNil() {
		return fmt.Errorf("gobwire: attempt to decode into %T, not a non-nil pointer", v)
	}
	defer catch(&err)
	d.msg, d.off = nil, 0 // a message's bytes after its value are dropped
	id := d.typeSequence(false)
	d.decodeValue(id, value)
	return nil
}

// gobError carries a decoding failure up the stack to Decode.
type gobError struct{ err error }

func fail(err error) { panic(gobError{err}) }

func failf(format string, args ...any) {
	fail(fmt.Errorf("gobwire: "+format, args...))
}

// catch turns a decoding failure back into an error; any other panic is
// a bug and is re-raised.
func catch(err *error) {
	if e := recover(); e != nil {
		ge, ok := e.(gobError)
		if !ok {
			panic(e)
		}
		*err = ge.err
	}
}

// recvMessage makes the stream's next message current. It returns
// io.EOF at a clean end of the stream.
func (d *Decoder) recvMessage() error {
	n, err := d.streamUint()
	if err != nil {
		return err
	}
	if n >= tooBig {
		return errors.New("gobwire: invalid message length")
	}
	if d.r == nil {
		if n > uint64(len(d.src)) {
			return io.ErrUnexpectedEOF
		}
		d.msg, d.src = d.src[:n:n], d.src[n:]
	} else {
		if d.own, err = readMessage(d.r, d.own, int(n)); err != nil {
			return err
		}
		d.msg = d.own
	}
	d.off = 0
	return nil
}

// readMessage reads an n-byte message into buf, reusing it when it is
// large enough. A longer message grows the buffer a bounded step at a
// time, so a length the stream cannot back costs at most one step.
func readMessage(r io.Reader, buf []byte, n int) ([]byte, error) {
	const step = 1 << 20
	if n <= cap(buf) {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, eofIsUnexpected(err)
	}
	buf = buf[:0]
	for len(buf) < n {
		m := min(n-len(buf), step)
		if cap(buf)-len(buf) < m {
			grown := make([]byte, len(buf), max(2*cap(buf), len(buf)+m))
			copy(grown, buf)
			buf = grown
		}
		start := len(buf)
		buf = buf[:start+m]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, eofIsUnexpected(err)
		}
	}
	return buf, nil
}

func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// streamUint reads a message length from the stream: io.EOF when the
// stream ends before it, io.ErrUnexpectedEOF when it ends inside it.
func (d *Decoder) streamUint() (uint64, error) {
	if d.r == nil {
		if len(d.src) == 0 {
			return 0, io.EOF
		}
		x, n, err := parseUint(d.src)
		if err != nil {
			return 0, err
		}
		d.src = d.src[n:]
		return x, nil
	}
	b, err := d.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if b <= 0x7f {
		return uint64(b), nil
	}
	n := -int(int8(b))
	if n > 8 {
		return 0, errBadUint
	}
	var x uint64
	for i := 0; i < n; i++ {
		c, err := d.r.ReadByte()
		if err != nil {
			return 0, eofIsUnexpected(err)
		}
		x = x<<8 | uint64(c)
	}
	return x, nil
}

var errBadUint = errors.New("gobwire: encoded unsigned integer out of range")

// parseUint decodes one gob unsigned integer from the head of buf and
// reports how many bytes it took.
func parseUint(buf []byte) (uint64, int, error) {
	b := buf[0]
	if b <= 0x7f {
		return uint64(b), 1, nil
	}
	n := -int(int8(b))
	if n > 8 {
		return 0, 0, errBadUint
	}
	if len(buf)-1 < n {
		return 0, 0, io.ErrUnexpectedEOF
	}
	var x uint64
	for _, c := range buf[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n, nil
}

// left reports how many bytes of the current message remain.
func (d *Decoder) left() int { return len(d.msg) - d.off }

// uint decodes an unsigned integer from the current message.
func (d *Decoder) uint() uint64 {
	if d.off >= len(d.msg) {
		fail(io.ErrUnexpectedEOF)
	}
	if b := d.msg[d.off]; b <= 0x7f {
		d.off++
		return uint64(b)
	}
	x, n, err := parseUint(d.msg[d.off:])
	if err != nil {
		fail(err)
	}
	d.off += n
	return x
}

// int decodes a signed integer: the low bit of the unsigned form says
// whether the rest is complemented.
func (d *Decoder) int() int64 {
	x := d.uint()
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// length decodes a byte count and checks the message still holds that
// many bytes.
func (d *Decoder) length() int {
	u := d.uint()
	if u > uint64(d.left()) {
		fail(fmt.Errorf("%w: length %d, %d bytes left", ErrTooLarge, u, d.left()))
	}
	return int(u)
}

// bytes returns the next n bytes of the message (n checked by length).
func (d *Decoder) bytes(n int) []byte {
	b := d.msg[d.off : d.off+n]
	d.off += n
	return b
}

// typeSequence reads type definitions until it reaches a value's type id,
// receiving new messages as the current one runs out. Outside an
// interface value a definition must fill its message; inside one, the
// definitions are followed by a count the caller does not need.
func (d *Decoder) typeSequence(inInterface bool) int32 {
	for first := true; ; first = false {
		if d.left() == 0 {
			if err := d.recvMessage(); err != nil {
				if err == io.EOF && !first {
					err = io.ErrUnexpectedEOF // a definition without its value
				}
				fail(err)
			}
		}
		id := int32(d.int())
		if id >= 0 {
			return id
		}
		d.recvType(-id)
		if d.left() > 0 {
			if !inInterface {
				fail(errors.New("gobwire: extra data in buffer"))
			}
			d.uint()
		}
	}
}

// decodeValue decodes one value of wire type id into value, a non-nil
// pointer.
func (d *Decoder) decodeValue(id int32, value reflect.Value) {
	ut := userTypeOf(value.Type())
	e := d.engineFor(id, ut)
	value = alloc(value)
	if ut.base.Kind() == reflect.Struct && ut.external == 0 {
		if w := d.wire[id]; e.matched == 0 && ut.base.NumField() > 0 && w != nil && len(w.StructT.Field) > 0 {
			failf("type mismatch: no fields matched compiling decoder for %s", ut.base.Name())
		}
		d.decodeStruct(e, value)
		return
	}
	d.decodeSingle(e, value)
}

// alloc follows v through its pointers, allocating nil ones, and returns
// the value at the end.
func alloc(v reflect.Value) reflect.Value {
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		v = v.Elem()
	}
	return v
}

// decodeSingle decodes a top-level non-struct value, which the encoder
// sends as if it were the one field of a struct.
func (d *Decoder) decodeSingle(e *engine, v reflect.Value) {
	if d.uint() != 0 {
		failf("corrupted data: non-zero delta for singleton")
	}
	e.fields[0].op(d, v)
}

// decodeStruct decodes fields, each prefixed by its field-number delta,
// until a zero delta or the end of the message.
func (d *Decoder) decodeStruct(e *engine, v reflect.Value) {
	field := -1
	for d.left() > 0 {
		delta := int(d.uint())
		if delta < 0 {
			failf("corrupted data: negative delta")
		}
		if delta == 0 {
			return
		}
		if field >= len(e.fields)-delta {
			failf("bad data: field numbers out of bounds")
		}
		field += delta
		f := &e.fields[field]
		var fv reflect.Value
		if f.index != nil {
			fv = v.FieldByIndex(f.index)
			if fv.Kind() == reflect.Pointer {
				fv = alloc(fv)
			}
		}
		f.op(d, fv)
	}
}
