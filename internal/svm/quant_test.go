package svm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// quantFixture trains a small OVR problem so the precision rungs are
// exercised on real solver output, not synthetic weights.
func quantFixture(t testing.TB, n, dim, K int) (*OneVsRest, []*sparse.Vector) {
	t.Helper()
	r := rng.New(99)
	xs := make([]*sparse.Vector, n)
	labels := make([]int, n)
	for i := range xs {
		labels[i] = i % K
		dense := make([]float64, dim)
		for j := 0; j < dim/3; j++ {
			dense[r.Intn(dim)] = r.Float64() + 0.2*float64(labels[i])
		}
		xs[i] = sparse.FromDense(dense)
	}
	opt := DefaultOptions()
	opt.MaxIters = 30
	return TrainOVR(xs, labels, K, dim, opt), xs
}

// TestQuantizedMatchesDequantizedOracle pins the int8 kernel's dequant
// epilogue against scoring the explicitly dequantized float64 models:
// identical weights, so the only difference is reassociating the scale
// multiply — argmax must match everywhere and values must agree tightly.
func TestQuantizedMatchesDequantizedOracle(t *testing.T) {
	const n, dim, K = 60, 150, 9
	o, xs := quantFixture(t, n, dim, K)
	q, err := o.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	oracle := q.Dequantize()
	qs := make([]float64, K)
	os := make([]float64, K)
	for _, x := range xs {
		q.ScoresInto(x, qs)
		oracle.ScoresInto(x, os)
		var scale float64
		for c := range os {
			if a := math.Abs(os[c]); a > scale {
				scale = a
			}
		}
		argQ, argO := 0, 0
		for c := range qs {
			if qs[c] > qs[argQ] {
				argQ = c
			}
			if os[c] > os[argO] {
				argO = c
			}
			if math.Abs(qs[c]-os[c]) > 1e-10*(1+scale) {
				t.Fatalf("class %d: quantized kernel %v vs dequantized oracle %v", c, qs[c], os[c])
			}
		}
		if argQ != argO {
			t.Fatalf("argmax differs: kernel %d, oracle %d", argQ, argO)
		}
	}
}

// TestQuantizedApproximatesFloat64 bounds the quantization loss itself:
// each weight moves by at most Scale[c]/2, so scores move by at most
// (Σ|xⱼ|)·Scale[c]/2.
func TestQuantizedApproximatesFloat64(t *testing.T) {
	const K = 6
	o, xs := quantFixture(t, 30, 100, K)
	q, err := o.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	exact := make([]float64, K)
	approx := make([]float64, K)
	for _, x := range xs {
		o.ScoresInto(x, exact)
		q.ScoresInto(x, approx)
		var l1 float64
		for _, v := range x.Val {
			l1 += math.Abs(v)
		}
		for c := range exact {
			bound := l1*q.Scale[c]/2 + 1e-12
			if d := math.Abs(approx[c] - exact[c]); d > bound {
				t.Fatalf("class %d: quantization error %v above bound %v", c, d, bound)
			}
		}
	}
}

func TestQuantizedValidateRejects(t *testing.T) {
	o, _ := quantFixture(t, 20, 60, 4)
	fresh := func() *Quantized {
		q, err := o.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	cases := map[string]func(*Quantized){
		"truncated weights": func(q *Quantized) { q.W8 = q.W8[:len(q.W8)-3] },
		"NaN scale":         func(q *Quantized) { q.Scale[1] = math.NaN() },
		"Inf scale":         func(q *Quantized) { q.Scale[0] = math.Inf(1) },
		"negative scale":    func(q *Quantized) { q.Scale[2] = -1 },
		"zero-point overflow": func(q *Quantized) {
			q.Zero[3] = 4096 // outside int8 range
		},
		"NaN zero point": func(q *Quantized) { q.Zero[0] = math.NaN() },
		"NaN bias":       func(q *Quantized) { q.Bias[1] = math.NaN() },
		"short scales":   func(q *Quantized) { q.Scale = q.Scale[:2] },
		"bad classes":    func(q *Quantized) { q.NumClasses = 0 },
		"bad dim":        func(q *Quantized) { q.Dim = -5 },
	}
	for name, mutate := range cases {
		q := fresh()
		mutate(q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt kernel", name)
		}
	}
}

// TestQuantizedZeroPointEpilogue checks the full affine dequantization:
// a hand-built kernel with nonzero zero points must score exactly like
// its Dequantize form.
func TestQuantizedZeroPointEpilogue(t *testing.T) {
	enc := func(v int8) byte { return byte(v) }
	q := &Quantized{
		NumClasses: 2, Dim: 3,
		W8:    []byte{enc(10), enc(-4), enc(0), enc(7), enc(100), enc(-100)},
		Scale: []float64{0.5, 0.25},
		Zero:  []float64{3, -2},
		Bias:  []float64{0.1, -0.2},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	x := &sparse.Vector{Idx: []int32{0, 2}, Val: []float64{1.5, -2}}
	got := q.Scores(x)
	want := q.Dequantize().Scores(x)
	for c := range got {
		if math.Abs(got[c]-want[c]) > 1e-12 {
			t.Fatalf("class %d: epilogue %v, dequantized oracle %v", c, got[c], want[c])
		}
	}
}

// TestQuantizedScoresIntoAllocFree is the AllocsPerRun gate on the
// quantized hot path: with a caller-provided output row, scoring must
// not allocate.
func TestQuantizedScoresIntoAllocFree(t *testing.T) {
	o, xs := quantFixture(t, 20, 80, 5)
	q, err := o.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, q.NumClasses)
	x := xs[0]
	if n := testing.AllocsPerRun(100, func() { q.ScoresInto(x, out) }); n != 0 {
		t.Fatalf("quantized ScoresInto allocates %v per run, want 0", n)
	}
}

func TestQuantizeHeterogeneousFails(t *testing.T) {
	o := &OneVsRest{NumClasses: 2, Models: []*Model{
		{W: []float64{1, 2}, Bias: 0},
		{W: []float64{1, 2, 3}, Bias: 0},
	}}
	if _, err := o.Quantize(); err == nil {
		t.Fatal("heterogeneous models quantized")
	}
}

// TestQuantizeMatchesFrozenPacked pins Quantize, which now reads the
// row-major Models[c].W, to the frozen packed-reading version: the
// encoded kernels must be byte-equal, so compressed bundles do not move.
func TestQuantizeMatchesFrozenPacked(t *testing.T) {
	trained, _ := quantFixture(t, 40, 120, 9)
	batteries := map[string]*OneVsRest{"trained K=9": trained}
	r := rng.New(17)
	for _, K := range []int{1, 3, 4, 5, 23, 24} {
		batteries[fmt.Sprintf("random K=%d", K)] = randOVR(r.Split(uint64(K)), K, 1+r.Intn(700))
	}
	zero := randOVR(r, 5, 40)
	zero.Models[2].W = make([]float64, 40) // all-zero class: scale 1
	batteries["all-zero class"] = zero
	encode := func(q *Quantized) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(q); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, o := range batteries {
		got, err := o.Quantize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := newFrozenPacked(o).Quantize()
		if err != nil {
			t.Fatalf("%s: frozen: %v", name, err)
		}
		if !bytes.Equal(encode(got), encode(want)) {
			t.Fatalf("%s: Quantize output differs from the frozen packed-reading version", name)
		}
	}
	bad := randOVR(r, 6, 30)
	bad.Models[4].W[17] = math.Inf(-1)
	if _, err := bad.Quantize(); err == nil {
		t.Fatal("non-finite weight quantized")
	}
}
