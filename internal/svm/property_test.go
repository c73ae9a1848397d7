package svm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sparse"
)

func TestPropertyScoreIsLinear(t *testing.T) {
	// f(x) = w·x + b is affine: f(a·x) − b = a·(f(x) − b).
	r := rng.New(1)
	f := func(seed uint16, scaleRaw uint8) bool {
		rr := r.Split(uint64(seed))
		dim := 10
		m := &Model{W: make([]float64, dim)}
		for i := range m.W {
			m.W[i] = rr.Norm()
		}
		m.Bias = rr.Norm()
		x := make([]float64, dim)
		for i := range x {
			x[i] = rr.Norm()
		}
		a := float64(scaleRaw)/32 + 0.1
		v := sparse.FromDense(x)
		scaled := v.Clone()
		scaled.Scale(a)
		lhs := m.Score(scaled) - m.Bias
		rhs := a * (m.Score(v) - m.Bias)
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDualFeasibility(t *testing.T) {
	// After training, every margin violation must be bounded: for
	// separable-ish data with large C, training points satisfy
	// y·f(x) ≥ 1 − slack with bounded slack mass. We check the weaker,
	// always-true property that the solution is deterministic and scores
	// are finite.
	r := rng.New(2)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		n := rr.Intn(40) + 10
		dim := rr.Intn(10) + 2
		xs := make([]*sparse.Vector, n)
		ys := make([]int, n)
		for i := range xs {
			x := make([]float64, dim)
			y := 1
			if rr.Bernoulli(0.5) {
				y = -1
			}
			for j := range x {
				x[j] = rr.Norm()
			}
			x[0] += float64(y)
			xs[i] = sparse.FromDense(x)
			ys[i] = y
		}
		opt := DefaultOptions()
		opt.MaxIters = 40
		m1 := Train(xs, ys, dim, opt)
		m2 := Train(xs, ys, dim, opt)
		for i := range m1.W {
			if m1.W[i] != m2.W[i] {
				return false
			}
			if math.IsNaN(m1.W[i]) || math.IsInf(m1.W[i], 0) {
				return false
			}
		}
		return m1.Bias == m2.Bias
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOneVsRestScoresMatchBinaryModels(t *testing.T) {
	r := rng.New(3)
	dim := 8
	var xs []*sparse.Vector
	var labels []int
	for i := 0; i < 90; i++ {
		x := make([]float64, dim)
		k := i % 3
		x[k] += 2
		for j := range x {
			x[j] += 0.3 * r.Norm()
		}
		xs = append(xs, sparse.FromDense(x))
		labels = append(labels, k)
	}
	o := TrainOVR(xs, labels, 3, dim, DefaultOptions())
	for _, x := range xs[:15] {
		s := o.Scores(x)
		for k, m := range o.Models {
			if s[k] != m.Score(x) {
				t.Fatal("Scores disagrees with per-model Score")
			}
		}
	}
}
