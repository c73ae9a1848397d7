package gobwire_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/cascade"
	"repro/internal/experiments"
	"repro/internal/fusion"
	"repro/internal/gobwire"
	"repro/internal/ngram"
	"repro/internal/persist"
	"repro/internal/proj"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/testbundle"
	"repro/internal/vsm"
)

// TestMain caps how long the fuzzer minimizes each new interesting
// input at 2 s unless -test.fuzzminimizetime is given. The seeds are
// gob streams of several kilobytes, and the minimizer's byte-range
// removal pass is quadratic in the input's length, so at the default
// 60 s every new input spent the full minute there, uncounted in
// execs/s: FuzzDecodeMatchesGob seemed to stall at 0 execs/s a few
// seconds in, and a 3-minute run fuzzed for a few seconds.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.fuzzminimizetime" })
	if !set {
		flag.Set("test.fuzzminimizetime", "2s")
	}
	os.Exit(m.Run())
}

// targets are the Go types the repository decodes gob streams into; a
// fuzz input's first byte picks one.
var targets = []func() any{
	func() any { return new(persist.Bundle) },
	func() any { return new(vsm.FeaturesSnapshot) },
	func() any { return new(experiments.Table4) },
	func() any { return new([]*sparse.Vector) }, // an adapt sidecar chunk
	func() any { return new(adapt.Set) },
	func() any { return new(float32Basis) },
}

const (
	targetBundle = iota
	targetFeatures
	targetTable4
	targetChunk
	targetSet
	targetFloat32
)

// float32Basis holds a []float32, which no persisted type does, so the
// fuzzer still drives the generic element step over float32s.
type float32Basis struct {
	Dim, Rank int
	F32       []float32
	Scale     []float64
}

// oldFrontEnd and oldBundle are a bundle as builds before compression
// and the cascade wrote it.
type oldFrontEnd struct {
	Name      string
	NumPhones int
	Order     int
	TFLLR     *ngram.TFLLR
	OVR       *svm.OneVsRest
}

type oldBundle struct {
	Languages []string
	FrontEnds []oldFrontEnd
	Fusion    *fusion.Backend
}

// laterBundle is a bundle as a later build might write it: extra map,
// struct, pointer-slice and GobEncoder fields a reader must skip.
type laterBundle struct {
	Languages  []string
	Notes      map[string][]float64
	FrontEnds  []persist.FrontEndModel
	Provenance struct {
		Host  string
		Dims  [3]int
		Score complex128
	}
	Fusion   *fusion.Backend
	Spares   []*svm.Model
	Cascade  *cascade.Model
	Scaler   *ngram.TFLLR
	Revision uint16
}

func seeds(t testing.TB) [][]byte {
	enc := func(target int, vs ...any) []byte {
		var buf bytes.Buffer
		buf.WriteByte(byte(target))
		e := gob.NewEncoder(&buf)
		for _, v := range vs {
			if err := e.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	b := testbundle.WriteCascade(t, t.TempDir(), 3)

	compressed := *b
	compressed.Cascade = nil
	compressed.FrontEnds = append([]persist.FrontEndModel(nil), b.FrontEnds...)
	for i := range compressed.FrontEnds {
		fe := &compressed.FrontEnds[i]
		q, err := fe.OVR.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		fe.OVR, fe.Quant = nil, q
		fe.Proj = &proj.Packed{Dim: fe.SpaceDim(), Rank: 2, Q8: []byte{1, 0xff, 2, 0}, Scale: []float64{1, 2}}
	}

	old := oldBundle{Languages: b.Languages, Fusion: b.Fusion}
	later := laterBundle{Languages: b.Languages, FrontEnds: b.FrontEnds, Fusion: b.Fusion, Cascade: b.Cascade,
		Notes: map[string][]float64{"eer": {0.1, 0.2}}, Spares: []*svm.Model{{W: []float64{1, 2}, Bias: 3}},
		Scaler: b.FrontEnds[0].TFLLR, Revision: 7}
	later.Provenance.Host, later.Provenance.Dims, later.Provenance.Score = "h", [3]int{1, 2, 3}, 1i
	for _, fe := range b.FrontEnds {
		old.FrontEnds = append(old.FrontEnds, oldFrontEnd{fe.Name, fe.NumPhones, fe.Order, fe.TFLLR, fe.OVR})
	}

	rows := []*sparse.Vector{testbundle.Vector(1), testbundle.Vector(2), {}}
	snap := &vsm.FeaturesSnapshot{FEName: "FE0", Dim: 25, TF: b.FrontEnds[0].TFLLR, IDs: []int{4, 9, 11}, Rows: rows,
		Quarantined: []vsm.QuarantinedUtterance{{ItemID: 3, Err: "decode failed"}}, BestPaths: [][]int{{5, 0, 12}, {}, {7}}}
	table := &experiments.Table4{Durations: []float64{30, 10, 3}, FrontEnds: []string{"FE0", "FE1"}, V: 3,
		BaselineSingle: map[string]map[float64]experiments.Cell{"FE0": {30: {EER: 0.1, Cavg: 0.2}, 3: {}}},
		DBASingle:      map[string]map[float64]experiments.Cell{"FE1": {10: {EER: 0.3}}},
		BaselineFusion: map[float64]experiments.Cell{30: {Cavg: 0.05}},
		DBAFusion:      map[float64]experiments.Cell{}}
	set := &adapt.Set{FormatVersion: 2, Languages: b.Languages, Seed: 42, TrainLabels: []int{0, 1, 2},
		FrontEnds: []adapt.SetFrontEnd{{Name: "FE0", Dim: 25}}}

	return [][]byte{
		enc(targetBundle, b, b),
		enc(targetBundle, &compressed),
		enc(targetBundle, &old),
		enc(targetBundle, &later, &later),
		enc(targetFeatures, snap),
		enc(targetTable4, table),
		enc(targetChunk, rows, rows[:1]),
		enc(targetSet, set),
		enc(targetFloat32, &float32Basis{Dim: 2, Rank: 2, F32: []float32{0.5, -1, 2, 0}, Scale: []float64{1, 2}}),
		// Small streams, which mutations reshape more often.
		enc(targetTable4, &experiments.Table4{V: 1, DBAFusion: map[float64]experiments.Cell{3: {EER: 1}}}),
		enc(targetChunk, []*sparse.Vector{{Idx: []int32{1}, Val: []float64{2}}}),
		enc(targetBundle, &oldBundle{Languages: []string{"a"}, FrontEnds: []oldFrontEnd{{Name: "x", Order: 2}}}),
	}
}

// FuzzDecodeMatchesGob holds the decoder to encoding/gob on raw gob
// streams: value after value, both must accept or both reject, and what
// they accept must be equal.
func FuzzDecodeMatchesGob(f *testing.F) {
	for _, s := range seeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		newValue := targets[int(data[0])%len(targets)]
		data = data[1:]
		ref, dec := gob.NewDecoder(bytes.NewReader(data)), gobwire.NewBytesDecoder(data)
		for i := 0; i < 3; i++ {
			want, got := newValue(), newValue()
			gerr := dec.Decode(got)
			if errors.Is(gerr, gobwire.ErrTooLarge) && strings.Contains(gerr.Error(), "map[") {
				// encoding/gob sizes a map by its claimed count before
				// reading an entry, so it may try a huge allocation here.
				return
			}
			werr := gobDecode(ref, want)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("value %d: encoding/gob says %v, gobwire says %v", i, werr, gerr)
			}
			if werr != nil {
				return
			}
			if !same(reflect.ValueOf(want), reflect.ValueOf(got)) {
				t.Fatalf("value %d: decoded values differ", i)
			}
		}
	})
}

// gobDecode runs the referee, turning its panics on hostile input into
// errors.
func gobDecode(dec *gob.Decoder, v any) (err error) {
	defer func() {
		if e := recover(); e != nil {
			err = fmt.Errorf("encoding/gob panicked: %v", e)
		}
	}()
	return dec.Decode(v)
}

// same is reflect.DeepEqual with floats compared bit for bit, so a NaN
// equals itself, and map entries matched by that equality.
func same(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Complex64, reflect.Complex128:
		x, y := a.Complex(), b.Complex()
		return same(reflect.ValueOf(real(x)), reflect.ValueOf(real(y))) && same(reflect.ValueOf(imag(x)), reflect.ValueOf(imag(y)))
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return same(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !same(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !same(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		// Entries are matched by iteration, not lookup: a NaN key is
		// never found by MapIndex.
		var rest [][2]reflect.Value
		for it := b.MapRange(); it.Next(); {
			rest = append(rest, [2]reflect.Value{it.Key(), it.Value()})
		}
	entries:
		for it := a.MapRange(); it.Next(); {
			for j, e := range rest {
				if same(it.Key(), e[0]) && same(it.Value(), e[1]) {
					rest = append(rest[:j], rest[j+1:]...)
					continue entries
				}
			}
			return false
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// TestBundleMatchesGob decodes a sealed bundle's payload both ways.
func TestBundleMatchesGob(t *testing.T) {
	b := testbundle.WriteCascade(t, t.TempDir(), 5)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		t.Fatal(err)
	}
	var want, got persist.Bundle
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&want); err != nil {
		t.Fatal(err)
	}
	if err := gobwire.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&want, &got) {
		t.Fatal("gobwire's bundle differs from encoding/gob's")
	}
}
