package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFromMapSortedAndValid(t *testing.T) {
	v := FromMap(map[int32]float64{5: 1, 2: 2, 9: 3, 7: 0})
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 3 {
		t.Fatalf("NNZ = %d, zero entry not dropped?", v.NNZ())
	}
	if v.At(2) != 2 || v.At(5) != 1 || v.At(9) != 3 || v.At(7) != 0 || v.At(100) != 0 {
		t.Fatalf("At lookups wrong: %v", v)
	}
}

func TestFromDense(t *testing.T) {
	v := FromDense([]float64{0, 1.5, 0, 0, -2})
	if v.NNZ() != 2 || v.At(1) != 1.5 || v.At(4) != -2 {
		t.Fatalf("FromDense = %v", v)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDotMatchesDense(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		n := 50
		da := make([]float64, n)
		db := make([]float64, n)
		for i := 0; i < n; i++ {
			if rr.Bernoulli(0.3) {
				da[i] = rr.Norm()
			}
			if rr.Bernoulli(0.3) {
				db[i] = rr.Norm()
			}
		}
		var want float64
		for i := range da {
			want += da[i] * db[i]
		}
		got := Dot(FromDense(da), FromDense(db))
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDotDenseAndAxpy(t *testing.T) {
	v := FromMap(map[int32]float64{0: 1, 3: 2, 7: -1})
	w := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if got := v.DotDense(w); got != 2 {
		t.Fatalf("DotDense = %v", got)
	}
	v.AxpyDense(2, w)
	if w[0] != 3 || w[3] != 5 || w[7] != -1 {
		t.Fatalf("AxpyDense = %v", w)
	}
	// Indices beyond len(w) must be ignored, not panic.
	long := FromMap(map[int32]float64{1: 1, 99: 5})
	short := []float64{0, 0}
	if got := long.DotDense(short); got != 0 {
		t.Fatalf("DotDense out-of-range = %v", got)
	}
	long.AxpyDense(1, short)
	if short[1] != 1 {
		t.Fatalf("AxpyDense out-of-range = %v", short)
	}
}

// A negative index is an invariant violation; the kernels must fail
// loudly (as the pre-optimization w[i] bounds check did) rather than
// silently truncate the gather at the corrupted element.
func TestDotDenseNegativeIndexPanics(t *testing.T) {
	bad := &Vector{Idx: []int32{1, -4, 6}, Val: []float64{1, 1, 1}}
	w := make([]float64, 8)
	mustPanic(t, "DotDense", func() { bad.DotDense(w) })
	mustPanic(t, "AxpyDense", func() { bad.AxpyDense(1, w) })
	// The same corruption inside the 4-wide unrolled block.
	bad4 := &Vector{Idx: []int32{0, 1, -2, 3, 5}, Val: []float64{1, 1, 1, 1, 1}}
	mustPanic(t, "DotDense unrolled", func() { bad4.DotDense(w) })
	mustPanic(t, "AxpyDense unrolled", func() { bad4.AxpyDense(1, w) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic on negative index", name)
		}
	}()
	f()
}

func TestNormSumScale(t *testing.T) {
	v := FromDense([]float64{3, 0, 4})
	if v.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", v.Norm2())
	}
	v.Scale(2)
	if v.At(0) != 6 || v.At(2) != 8 {
		t.Fatalf("Scale result %v", v)
	}
}

func TestMap(t *testing.T) {
	v := FromDense([]float64{1, 0, 2})
	v.Map(func(idx int32, val float64) float64 { return val * float64(idx+1) })
	if v.At(0) != 1 || v.At(2) != 6 {
		t.Fatalf("Map result %v", v)
	}
}

func TestAccumulator(t *testing.T) {
	a := NewAccumulator(8)
	a.Add(4, 0.5)
	a.Add(1, 1.5)
	a.Add(4, 0.5)
	a.Add(6, 2)
	a.Add(6, -2)
	v := a.Vector()
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	// Index 6 sums to an exact zero and is dropped.
	if v.NNZ() != 2 || v.At(1) != 1.5 || v.At(4) != 1 {
		t.Fatalf("Vector = %v, want [1:1.5 4:1]", v)
	}
}

func TestEmptyAccumulatorVector(t *testing.T) {
	v := NewAccumulator(100).Vector()
	if v.NNZ() != 0 {
		t.Fatalf("empty accumulator gave %v", v)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := FromDense([]float64{1, 2})
	c := v.Clone()
	c.Scale(10)
	if v.At(0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestValidateCatchesDisorder(t *testing.T) {
	v := &Vector{Idx: []int32{3, 1}, Val: []float64{1, 1}}
	if v.Validate() == nil {
		t.Fatal("Validate accepted out-of-order indices")
	}
	v2 := &Vector{Idx: []int32{1}, Val: []float64{1, 2}}
	if v2.Validate() == nil {
		t.Fatal("Validate accepted length mismatch")
	}
}

func TestString(t *testing.T) {
	v := FromDense(make([]float64, 0))
	if v.String() != "[]" {
		t.Fatalf("empty String = %q", v.String())
	}
	big := NewAccumulator(20)
	for i := int32(0); i < 20; i++ {
		big.Add(i, 1)
	}
	s := big.Vector().String()
	if len(s) == 0 {
		t.Fatal("String of large vector empty")
	}
}
