package gobwire

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
)

// basicOps decodes the kinds that map one-to-one onto a wire scalar.
var basicOps = [...]decOp{
	reflect.Bool:       func(d *Decoder, v reflect.Value) { v.SetBool(d.uint() != 0) },
	reflect.Int:        decInt(math.MinInt, math.MaxInt),
	reflect.Int8:       decInt(math.MinInt8, math.MaxInt8),
	reflect.Int16:      decInt(math.MinInt16, math.MaxInt16),
	reflect.Int32:      decInt(math.MinInt32, math.MaxInt32),
	reflect.Int64:      decInt(math.MinInt64, math.MaxInt64),
	reflect.Uint:       decUint(math.MaxUint),
	reflect.Uint8:      decUint(math.MaxUint8),
	reflect.Uint16:     decUint(math.MaxUint16),
	reflect.Uint32:     decUint(math.MaxUint32),
	reflect.Uint64:     decUint(math.MaxUint64),
	reflect.Uintptr:    decUint(math.MaxUint64),
	reflect.Float32:    func(d *Decoder, v reflect.Value) { v.SetFloat(d.float32()) },
	reflect.Float64:    func(d *Decoder, v reflect.Value) { v.SetFloat(float64FromBits(d.uint())) },
	reflect.Complex64:  func(d *Decoder, v reflect.Value) { v.SetComplex(complex(d.float32(), d.float32())) },
	reflect.Complex128: decComplex128,
	reflect.String:     func(d *Decoder, v reflect.Value) { v.SetString(string(d.bytes(d.length()))) },
}

func decInt(lo, hi int64) decOp {
	return func(d *Decoder, v reflect.Value) {
		x := d.int()
		if x < lo || x > hi {
			fail(overflow(v.Type()))
		}
		v.SetInt(x)
	}
}

func decUint(hi uint64) decOp {
	return func(d *Decoder, v reflect.Value) {
		x := d.uint()
		if x > hi {
			fail(overflow(v.Type()))
		}
		v.SetUint(x)
	}
}

func decComplex128(d *Decoder, v reflect.Value) {
	re := float64FromBits(d.uint())
	v.SetComplex(complex(re, float64FromBits(d.uint())))
}

// float64FromBits undoes the encoder's byte reversal, which puts a
// float's exponent first so that round numbers encode short.
func float64FromBits(u uint64) float64 {
	return math.Float64frombits(bits.ReverseBytes64(u))
}

// float32 decodes a float bound for a float32, which must be in range.
func (d *Decoder) float32() float64 {
	v := float64FromBits(d.uint())
	if av := math.Abs(v); math.MaxFloat32 < av && av <= math.MaxFloat64 {
		fail(fmt.Errorf("gobwire: float32 value %g out of range", v))
	}
	return v
}

// float64s decodes len(s) floats into s. A float is sent as its bits
// byte-reversed, as an unsigned integer: in the common full-width case a
// -8 length byte then the bits little-endian, one load; a one-byte
// integer is a float whose bits are all in the top byte (0 is 0.0).
func (d *Decoder) float64s(s []float64) {
	msg, off := d.msg, d.off
	for i := range s {
		if off+9 <= len(msg) && msg[off] == 0xf8 {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(msg[off+1 : off+9]))
			off += 9
			continue
		}
		if off < len(msg) && msg[off] <= 0x7f {
			s[i] = math.Float64frombits(uint64(msg[off]) << 56)
			off++
			continue
		}
		d.off = off
		d.elemDue(len(s))
		s[i] = float64FromBits(d.uint())
		off = d.off
	}
	d.off = off
}

// count decodes a slice's element count. Every element takes at least
// one byte, so a count the message cannot back fails before anything is
// allocated.
func (d *Decoder) count(t reflect.Type) int {
	u := d.uint()
	size := uint64(t.Elem().Size())
	n := int(u)
	if u > uint64(d.left()) {
		fail(fmt.Errorf("%w: %d-element %s, %d bytes left", ErrTooLarge, u, t, d.left()))
	}
	if n < 0 || uint64(n) != u || u*size > tooBig || (size > 0 && u*size/size != u) {
		failf("%s slice too big: %d elements of %d bytes", t.Elem(), u, size)
	}
	return n
}

// elemDue fails when the message ends before a counted element.
func (d *Decoder) elemDue(n int) {
	if d.left() == 0 {
		failf("decoding array or slice: length exceeds input size (%d elements)", n)
	}
}

// typedSliceOps decode the numeric slices models are made of without a
// reflect call per element.
var typedSliceOps = map[reflect.Type]decOp{
	reflect.TypeFor[[]float64](): func(d *Decoder, v reflect.Value) {
		d.float64s(resize(d, v.Addr().Interface().(*[]float64), v.Type()))
	},
	reflect.TypeFor[[]int]():   intSlice[int](math.MinInt, math.MaxInt),
	reflect.TypeFor[[]int32](): intSlice[int32](math.MinInt32, math.MaxInt32),
	reflect.TypeFor[[]int64](): intSlice[int64](math.MinInt64, math.MaxInt64),
}

func intSlice[T int | int32 | int64](lo, hi int64) decOp {
	return func(d *Decoder, v reflect.Value) {
		s := resize(d, v.Addr().Interface().(*[]T), v.Type())
		for i := range s {
			d.elemDue(len(s))
			x := d.int()
			if x < lo || x > hi {
				fail(overflow(v.Type().Elem()))
			}
			s[i] = T(x)
		}
	}
}

// resize sets *p to the decoded count's length, reusing its array when it
// is large enough (as encoding/gob does), and returns it.
func resize[T any](d *Decoder, p *[]T, t reflect.Type) []T {
	n := d.count(t)
	if cap(*p) < n {
		*p = make([]T, n)
	} else {
		*p = (*p)[:n]
	}
	return *p
}

// sliceOp decodes any other slice element by element.
func sliceOp(t reflect.Type, elem *decOp) decOp {
	isPtr := t.Elem().Kind() == reflect.Pointer
	return func(d *Decoder, v reflect.Value) {
		n := d.count(t)
		if v.Cap() < n {
			v.Set(reflect.MakeSlice(t, n, n))
		} else {
			v.SetLen(n)
		}
		for i := 0; i < n; i++ {
			d.elemDue(n)
			e := v.Index(i)
			if isPtr {
				e = alloc(e)
			}
			(*elem)(d, e)
		}
	}
}

func arrayOp(t reflect.Type, elem *decOp) decOp {
	isPtr := t.Elem().Kind() == reflect.Pointer
	return func(d *Decoder, v reflect.Value) {
		n := t.Len()
		if d.uint() != uint64(n) {
			failf("length mismatch in decodeArray")
		}
		for i := 0; i < n; i++ {
			d.elemDue(n)
			e := v.Index(i)
			if isPtr {
				e = alloc(e)
			}
			(*elem)(d, e)
		}
	}
}

// mapOp decodes key/element pairs into the map, making it if it is nil.
// Every key takes at least one byte, so a count the message cannot back
// fails before the map is made. (A count too large for an int is taken as
// no entries, as encoding/gob takes it.)
func mapOp(t reflect.Type, key, elem *decOp) decOp {
	keyIsPtr := t.Key().Kind() == reflect.Pointer
	elemIsPtr := t.Elem().Kind() == reflect.Pointer
	return func(d *Decoder, v reflect.Value) {
		u := d.uint()
		n := int(u)
		if n > 0 && u > uint64(d.left()) {
			fail(fmt.Errorf("%w: %d-entry %s, %d bytes left", ErrTooLarge, u, t, d.left()))
		}
		if v.IsNil() {
			v.Set(reflect.MakeMapWithSize(t, max(n, 0)))
		}
		kp, ep := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		for i := 0; i < n; i++ {
			decodeInto(d, *key, keyIsPtr, kp)
			decodeInto(d, *elem, elemIsPtr, ep)
			v.SetMapIndex(kp, ep)
			kp.SetZero()
			ep.SetZero()
		}
	}
}

func decodeInto(d *Decoder, op decOp, isPtr bool, v reflect.Value) {
	if isPtr {
		v = alloc(v)
	}
	op(d, v)
}

// decBytes decodes a byte slice, copying it out of the message.
func decBytes(d *Decoder, v reflect.Value) {
	n := d.length()
	if v.Cap() < n {
		v.Set(reflect.MakeSlice(v.Type(), n, n))
	} else {
		v.SetLen(n)
	}
	copy(v.Bytes(), d.bytes(n))
}

// externalOp hands a GobEncoder's bytes — a copy, so the value cannot
// alias the input — to the type's GobDecode or UnmarshalBinary.
func externalOp(ut *userType) decOp {
	return func(d *Decoder, v reflect.Value) {
		if v.Kind() != reflect.Pointer && ut.rcvr.Kind() == reflect.Pointer {
			v = v.Addr()
		}
		b := append([]byte(nil), d.bytes(d.length())...)
		var err error
		if ut.external == xGob {
			err = v.Interface().(gobDecoder).GobDecode(b)
		} else {
			err = v.Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(b)
		}
		if err != nil {
			fail(err)
		}
	}
}

func ignoreUint(d *Decoder, _ reflect.Value) { d.uint() }

func ignoreTwoUints(d *Decoder, _ reflect.Value) { d.uint(); d.uint() }

func ignoreBytes(d *Decoder, _ reflect.Value) { d.bytes(d.length()) }

// ignoreInterface skips an interface value: its concrete type's name, any
// type definitions it brings, its type id, then its length-prefixed value.
func ignoreInterface(d *Decoder, _ reflect.Value) {
	d.bytes(d.length())
	d.typeSequence(true)
	d.bytes(d.length())
}

// ignoreElems skips n array or slice elements.
func (d *Decoder) ignoreElems(elem decOp, n int) {
	for i := 0; i < n; i++ {
		d.elemDue(n)
		elem(d, reflect.Value{})
	}
}

// ignoreMap skips a map's entries. At the message's end an entry either
// fails or, with struct keys and elements, takes no bytes — and then
// neither would any later one, so the rest are skipped at once.
func (d *Decoder) ignoreMap(key, elem decOp) {
	n := int(d.uint())
	for i := 0; i < n; i++ {
		atEnd := d.left() == 0
		key(d, reflect.Value{})
		elem(d, reflect.Value{})
		if atEnd {
			return
		}
	}
}
