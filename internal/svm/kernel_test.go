package svm

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// randOVR builds a homogeneous K-class battery of dim-dimensional models
// with Gaussian weights, a sprinkling of exact zeros, and Gaussian biases.
func randOVR(r *rng.RNG, K, dim int) *OneVsRest {
	o := &OneVsRest{NumClasses: K, Models: make([]*Model, K)}
	for c := range o.Models {
		w := make([]float64, dim)
		for j := range w {
			if !r.Bernoulli(0.1) {
				w[j] = r.Norm() * math.Exp2(float64(r.Intn(20)-10))
			}
		}
		o.Models[c] = &Model{W: w, Bias: r.Norm()}
	}
	return o
}

// randRow draws a row with ascending indices in [0, dim), each present
// with probability density.
func randRow(r *rng.RNG, dim int, density float64) *sparse.Vector {
	x := sparse.New(int(float64(dim)*density) + 1)
	for j := 0; j < dim; j++ {
		if r.Bernoulli(density) {
			x.Idx = append(x.Idx, int32(j))
			x.Val = append(x.Val, r.Norm())
		}
	}
	return x
}

// rowPrefix cuts x at its first index outside [0, dim): the part of the
// row every scoring path accumulates before it stops.
func rowPrefix(x *sparse.Vector, dim int) *sparse.Vector {
	for k, i := range x.Idx {
		if i < 0 || int(i) >= dim {
			return &sparse.Vector{Idx: x.Idx[:k], Val: x.Val[:k]}
		}
	}
	return x
}

// checkRow scores x with the grouped kernel and requires the same bits
// as the frozen packed kernel and per-model Score, both run on the row
// prefix the kernel accumulates.
func checkRow(t testing.TB, label string, o *OneVsRest, ref *frozenPacked, dim int, x *sparse.Vector) {
	t.Helper()
	K := len(o.Models)
	got := make([]float64, K)
	want := make([]float64, K)
	p := rowPrefix(x, dim)
	o.ScoresInto(x, got)
	ref.ScoresInto(p, want)
	for c := range got {
		g := math.Float64bits(got[c])
		if w := math.Float64bits(want[c]); g != w {
			t.Fatalf("%s class %d: grouped %v, frozen packed %v", label, c, got[c], want[c])
		}
		if s := o.Models[c].Score(p); g != math.Float64bits(s) {
			t.Fatalf("%s class %d: grouped %v, per-model Score %v", label, c, got[c], s)
		}
	}
}

// TestGroupedKernelMatchesFrozenReferees is the property test: random
// batteries with every K mod 4 remainder, dims 1–5000 and densities
// 0–100% score bit-identically to the frozen packed kernel and to
// per-model Score.
func TestGroupedKernelMatchesFrozenReferees(t *testing.T) {
	root := rng.New(2024)
	for _, K := range []int{1, 2, 3, 4, 5, 7, 8, 23, 24} {
		for trial := 0; trial < 4; trial++ {
			r := root.Split(uint64(K*16 + trial))
			dim := 1 + r.Intn(5000)
			if trial == 0 {
				dim = 1
			}
			o := randOVR(r, K, dim)
			ref := newFrozenPacked(o)
			for v := 0; v < 6; v++ {
				density := r.Float64()
				switch v {
				case 0:
					density = 0
				case 1:
					density = 1
				}
				x := randRow(r, dim, density)
				if v%2 == 1 { // trailing indices past the weights
					x.Idx = append(x.Idx, int32(dim), int32(dim+7))
					x.Val = append(x.Val, 1, -2)
				}
				checkRow(t, fmt.Sprintf("K=%d dim=%d density=%.2f", K, dim, density), o, ref, dim, x)
			}
		}
	}
}

// TestScoresIntoRowEnds pins the row cutoff: the kernel stops at the
// first index outside [0, dim), negative ones included, with the bits
// Model.Score accumulates up to that index. Score itself then panics on
// a negative index (sparse.DotDense's contract), so the referees run on
// the prefix.
func TestScoresIntoRowEnds(t *testing.T) {
	const dim = 9
	cases := map[string]*sparse.Vector{
		"negative index":              {Idx: []int32{1, 3, -4, 6}, Val: []float64{0.5, -1.25, 3, 2}},
		"negative index at row start": {Idx: []int32{-1, 2}, Val: []float64{1, 1}},
		"negative index in a block":   {Idx: []int32{0, 1, -2, 3, 5, 7}, Val: []float64{1, 2, 3, 4, 5, 6}},
		"most negative int32":         {Idx: []int32{2, math.MinInt32, 4}, Val: []float64{1.5, 1, 1}},
		"out of range mid-row":        {Idx: []int32{2, dim + 5, 4}, Val: []float64{0.75, 9, -3}},
		"largest int32 mid-row":       {Idx: []int32{0, math.MaxInt32, 1}, Val: []float64{2, 1, 1}},
		"trailing indices >= dim":     {Idx: []int32{0, 5, dim, dim + 1}, Val: []float64{1, -0.5, 4, 4}},
		"empty row":                   {},
	}
	root := rng.New(7)
	for _, K := range []int{1, 6, 23} {
		o := randOVR(root.Split(uint64(K)), K, dim)
		ref := newFrozenPacked(o)
		for name, x := range cases {
			checkRow(t, fmt.Sprintf("%s K=%d", name, K), o, ref, dim, x)
		}
	}
}

// TestFirstScoreAllocatesNoWeightCopy is the no-copy gate: on a fresh
// serving-sized battery the first score allocates nothing (the packed
// kernel built a 0.75 MiB feature-major copy on first use), and later
// scores stay allocation-free. TotalAlloc is process-wide, so a runtime goroutine
// allocating inside the window can spoil one reading; a weight copy
// would show on every fresh battery, so the gate takes the best of three.
func TestFirstScoreAllocatesNoWeightCopy(t *testing.T) {
	const K, dim = 23, 4160
	r := rng.New(11)
	x := randRow(r, dim, 0.5)
	out := make([]float64, K)
	var deltas []uint64
	for len(deltas) < 3 {
		o := randOVR(r, K, dim)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o.ScoresInto(x, out)
		runtime.ReadMemStats(&after)
		if n := testing.AllocsPerRun(20, func() { o.ScoresInto(x, out) }); n != 0 {
			t.Fatalf("scoring allocates %v per run", n)
		}
		d := after.TotalAlloc - before.TotalAlloc
		if d < 1024 {
			return
		}
		deltas = append(deltas, d)
	}
	t.Fatalf("first score allocated %v bytes on three fresh batteries, want < 1 KiB", deltas)
}

// FuzzScoresIntoMatchesPerModel scores arbitrary rows — unsorted,
// repeated, negative and out-of-range indices — against batteries of 1
// to 30 classes. The grouped kernel must not panic and must match the
// frozen packed kernel and per-model Score, run on the row prefix it
// accumulates, bit for bit.
//
// Each 4-byte chunk of row is one nonzero: byte 3 picks the index kind,
// bytes 0–1 its magnitude, byte 2 the value.
func FuzzScoresIntoMatchesPerModel(f *testing.F) {
	f.Add(uint8(22), uint16(40), uint64(1), []byte{1, 0, 3, 3, 5, 0, 200, 3, 9, 0, 7, 4})
	f.Add(uint8(0), uint16(0), uint64(2), []byte{})
	f.Add(uint8(4), uint16(7), uint64(3), []byte{3, 0, 1, 0, 0, 0, 9, 3, 2, 0, 4, 1})
	f.Add(uint8(29), uint16(300), uint64(4), []byte{10, 1, 5, 7, 0, 0, 2, 2, 1, 0, 3, 3, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, k uint8, d uint16, seed uint64, row []byte) {
		K, dim := 1+int(k)%30, 1+int(d)%512
		o := randOVR(rng.New(seed), K, dim)
		x := &sparse.Vector{}
		for ; len(row) >= 4; row = row[4:] {
			mag := int32(binary.LittleEndian.Uint16(row))
			var i int32
			switch row[3] % 8 {
			case 0:
				i = -1 - mag
			case 1:
				i = int32(dim) + mag
			case 2:
				i = int32(binary.LittleEndian.Uint32(row))
			default:
				i = mag % int32(dim)
			}
			x.Idx = append(x.Idx, i)
			x.Val = append(x.Val, float64(int8(row[2]))/16)
		}
		checkRow(t, fmt.Sprintf("K=%d dim=%d", K, dim), o, newFrozenPacked(o), dim, x)
	})
}

// BenchmarkScoresInto times one row against a 23-class battery at the
// serving front-ends' weight dims, ≈50% dense, for both kernels: the
// float64 one-vs-rest kernel of a plain bundle (beside it, the frozen
// feature-major kernel it replaced, already packed, on the same row)
// and Quantized.ScoresInto over the battery's int8 form, the kernel of
// a compressed bundle.
func BenchmarkScoresInto(b *testing.B) {
	const K = 23
	for _, dim := range []int{1892, 4160} {
		r := rng.New(uint64(dim))
		o := randOVR(r, K, dim)
		x := randRow(r, dim, 0.5)
		out := make([]float64, K)
		ref := newFrozenPacked(o)
		ref.ScoresInto(x, out)
		b.Run(fmt.Sprintf("float64/dim=%d/grouped", dim), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				o.ScoresInto(x, out)
			}
		})
		b.Run(fmt.Sprintf("float64/dim=%d/packed", dim), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				ref.ScoresInto(x, out)
			}
		})
	}
	for _, dim := range []int{1892, 4160} {
		r := rng.New(uint64(dim))
		o := randOVR(r, K, dim)
		x := randRow(r, dim, 0.5)
		out := make([]float64, K)
		q, err := o.Quantize()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("int8/dim=%d/quantized", dim), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				q.ScoresInto(x, out)
			}
		})
	}
}
