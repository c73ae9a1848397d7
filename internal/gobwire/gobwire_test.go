package gobwire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

type inner struct {
	Name  string
	W     []float64
	Bias  float64
	Idx   []int32
	Flags [3]bool
}

// blob round-trips through GobEncode/GobDecode.
type blob struct{ n int }

func (b *blob) GobEncode() ([]byte, error) { return []byte(strings.Repeat("x", b.n)), nil }
func (b *blob) GobDecode(p []byte) error {
	if len(p) > 0 && p[0] != 'x' {
		return errors.New("blob: bad byte")
	}
	b.n = len(p)
	return nil
}

type everything struct {
	B     bool
	I     int
	I8    int8
	I16   int16
	I32   int32
	I64   int64
	U     uint
	U8    uint8
	U16   uint16
	U32   uint32
	U64   uint64
	F32   float32
	F64   float64
	C64   complex64
	C128  complex128
	S     string
	Bytes []byte
	F32s  []float32
	Ints  []int
	I64s  []int64
	Strs  []string
	Rows  [][]float64
	Ptrs  []*inner
	Vals  []inner
	M     map[string]map[float64]inner
	PM    map[int]*inner
	Arr   [4]int16
	P     *inner
	PP    **inner
	Blob  *blob
	Blobs []*blob
	Named namedFloats
	Empty struct{}
}

type namedFloats []float64

func sample() *everything {
	in := &inner{Name: "a", W: []float64{1, -2.5, math.Pi, 0, math.Inf(1), math.SmallestNonzeroFloat64}, Bias: 0.25,
		Idx: []int32{0, 7, math.MaxInt32, math.MinInt32}, Flags: [3]bool{true, false, true}}
	return &everything{
		B: true, I: -1 << 40, I8: -128, I16: 32767, I32: -5, I64: math.MinInt64,
		U: 1 << 63, U8: 255, U16: 65535, U32: 1 << 31, U64: math.MaxUint64,
		F32: 1.5, F64: -0.0, C64: complex(1, -2), C128: complex(math.Pi, math.E),
		S: "héllo", Bytes: []byte{0, 1, 2, 255},
		F32s: []float32{1, 2.5, math.MaxFloat32}, Ints: []int{0, -1, 1 << 50}, I64s: []int64{math.MaxInt64},
		Strs: []string{"", "x", "yz"}, Rows: [][]float64{{1, 2}, nil, {3}},
		Ptrs: []*inner{in, {Name: "b"}}, Vals: []inner{*in, {}},
		M:     map[string]map[float64]inner{"k": {1.5: *in, -3: {}}, "e": {}},
		PM:    map[int]*inner{3: in},
		Arr:   [4]int16{1, -2, 3, -4},
		P:     in,
		PP:    &in,
		Blob:  &blob{n: 5},
		Blobs: []*blob{{n: 1}, {n: 0}, {n: 3}},
		Named: namedFloats{9, 8},
	}
}

func encode(t testing.TB, vs ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// referee decodes data with encoding/gob and this package, value after
// value, and requires the same verdict and equal values.
func referee(t *testing.T, data []byte, newValue func() any, values int) {
	t.Helper()
	for _, stream := range []bool{false, true} {
		ref := gob.NewDecoder(bytes.NewReader(data))
		var got *Decoder
		if stream {
			got = NewDecoder(bytes.NewReader(data))
		} else {
			got = NewBytesDecoder(data)
		}
		for i := 0; i < values; i++ {
			want, have := newValue(), newValue()
			werr, herr := ref.Decode(want), got.Decode(have)
			if (werr == nil) != (herr == nil) {
				t.Fatalf("stream=%v value %d: encoding/gob says %v, gobwire says %v", stream, i, werr, herr)
			}
			if werr != nil {
				break
			}
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("stream=%v value %d differs:\n gob     %+v\n gobwire %+v", stream, i, want, have)
			}
		}
	}
}

func TestDecodeMatchesGob(t *testing.T) {
	data := encode(t, sample(), &everything{}, sample(), []*inner{{Name: "z"}}, "tail")
	referee(t, data, func() any { return new(everything) }, 3)
	referee(t, data, func() any { return new(*everything) }, 3)

	// Top-level non-struct values.
	referee(t, encode(t, []float64{1, 2, 3}, []float64{}, []float64{4}), func() any { return new([]float64) }, 3)
	referee(t, encode(t, map[string]int{"a": 1}), func() any { return new(map[string]int) }, 1)
	referee(t, encode(t, "hi", "there"), func() any { return new(string) }, 2)
	referee(t, encode(t, &blob{n: 4}), func() any { return new(blob) }, 1)
	referee(t, encode(t, []*inner{{Name: "q", W: []float64{1}}}), func() any { return new([]*inner) }, 1)
}

// older has a subset of everything's fields, and later has others
// between them; each decodes the other's stream, skipping what it does
// not know.
type older struct {
	S    string
	Ptrs []*inner
	F64  float64
}

type later struct {
	S        string
	Extra    map[string][]int
	Ptrs     []*inner
	More     *inner
	MorePtrs []*inner
	MoreBlob *blob
	Iface    any
	F64      float64
	Arr2     [2]string
	Cplx     []complex64
	Bytes    []byte
	I        int
}

func TestSkipsUnknownFields(t *testing.T) {
	l := &later{S: "s", Extra: map[string][]int{"a": {1, 2}}, Ptrs: sample().Ptrs, More: &inner{Name: "m"},
		MorePtrs: []*inner{{Name: "n", W: []float64{1}}}, MoreBlob: &blob{n: 2}, Iface: []float64{1.5},
		F64: 2.5, Arr2: [2]string{"p", "q"}, Cplx: []complex64{1i}, Bytes: []byte("xyz"), I: 7}
	referee(t, encode(t, l, l), func() any { return new(older) }, 2)
	referee(t, encode(t, l), func() any { return new(everything) }, 1)
	referee(t, encode(t, &older{S: "o", F64: 2}), func() any { return new(everything) }, 1)
	referee(t, encode(t, &older{S: "o", F64: 2}), func() any { return new(later) }, 1)
	var got older
	if err := Unmarshal(encode(t, l), &got); err != nil || got.F64 != 2.5 || len(got.Ptrs) != 2 {
		t.Fatalf("older from later: %+v, %v", got, err)
	}
}

func TestTypeMismatchFails(t *testing.T) {
	type other struct{ S []int }
	data := encode(t, &older{S: "o"})
	referee(t, data, func() any { return new(other) }, 1)
	referee(t, data, func() any { return new([]float64) }, 1)
	referee(t, encode(t, []float64{1}), func() any { return new(older) }, 1)
	referee(t, encode(t, struct{ Z int }{3}), func() any { return new(older) }, 1)
}

func TestTruncatedStreamsFail(t *testing.T) {
	data := encode(t, sample())
	for n := 0; n < len(data); n += 1 + n/8 {
		referee(t, data[:n], func() any { return new(everything) }, 1)
	}
	if err := Unmarshal(nil, new(everything)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// hugeCount is a stream whose value claims a 2^40-element slice (or
// map) in a message of a few bytes.
func hugeCount(t *testing.T, v any) []byte {
	t.Helper()
	data := encode(t, v)
	// The value message is the last one: [len][type id][0 delta][count]...
	// Rewrite its count to 2^40 (0xfa: six bytes follow).
	last := lastMessage(t, data)
	body := append([]byte{}, data[last.start:last.end]...)
	// body[0] is the id (one byte for ids below 64, two above), then the
	// singleton delta 0, then the count.
	i := 0
	if body[i] >= 0x80 {
		i += 1 + int(-int8(body[i]))
	} else {
		i++
	}
	if body[i] != 0 {
		t.Fatalf("expected a singleton delta at %d of % x", i, body)
	}
	i++
	rest := body[i+1:] // drop the one-byte count
	msg := append(append(append([]byte{}, body[:i]...), 0xfa, 0x01, 0, 0, 0, 0, 0), rest...)
	out := append([]byte{}, data[:last.lenAt]...)
	out = append(out, byte(len(msg)))
	return append(out, msg...)
}

type span struct{ lenAt, start, end int }

func lastMessage(t *testing.T, data []byte) span {
	var s span
	for off := 0; off < len(data); {
		n, w, err := parseUint(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		s = span{off, off + w, off + w + int(n)}
		off = s.end
	}
	return s
}

func TestHugeCountsFailWithoutAllocating(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
		dst  func() any
	}{
		{"slice", []float64{1, 2}, func() any { return new([]float64) }},
		{"generic slice", []string{"a"}, func() any { return new([]string) }},
		{"map", map[string]int{"a": 1}, func() any { return new(map[string]int) }},
	} {
		data := hugeCount(t, tc.v)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Unmarshal(data, tc.dst())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: %v, want ErrTooLarge", tc.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Fatalf("%s: %d bytes allocated for a %d-byte stream", tc.name, n, len(data))
		}
	}
}
