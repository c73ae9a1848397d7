package svm

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// refTrain is a frozen copy of the pre-scratch Train implementation
// (fresh slices, per-call Norm2), the oracle the pooled/shared-qii
// solver must match bit for bit.
func refTrain(xs []*sparse.Vector, ys []int, dim int, opt Options) *Model {
	n := len(xs)
	m := &Model{W: make([]float64, dim)}
	if n == 0 {
		return m
	}
	if opt.C <= 0 {
		opt.C = 1
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 200
	}
	if opt.PositiveWeight <= 0 {
		opt.PositiveWeight = 1
	}
	alpha := make([]float64, n)
	qii := make([]float64, n)
	cost := make([]float64, n)
	for i, x := range xs {
		nrm := x.Norm2()
		qii[i] = nrm*nrm + 1
		if ys[i] > 0 {
			cost[i] = opt.C * opt.PositiveWeight
		} else {
			cost[i] = opt.C
		}
	}
	r := rng.New(opt.Seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for pass := 0; pass < opt.MaxIters; pass++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		maxViolation := 0.0
		for _, i := range order {
			yi := float64(ys[i])
			g := yi*(xs[i].DotDense(m.W)+m.Bias) - 1
			pg := g
			if alpha[i] <= 0 && g > 0 {
				pg = 0
			}
			if alpha[i] >= cost[i] && g < 0 {
				pg = 0
			}
			if v := pg; v < 0 {
				v = -v
				if v > maxViolation {
					maxViolation = v
				}
			} else if v > maxViolation {
				maxViolation = v
			}
			if pg == 0 {
				continue
			}
			old := alpha[i]
			a := old - g/qii[i]
			if a < 0 {
				a = 0
			} else if a > cost[i] {
				a = cost[i]
			}
			alpha[i] = a
			d := (a - old) * yi
			if d != 0 {
				xs[i].AxpyDense(d, m.W)
				m.Bias += d
			}
		}
		if maxViolation < opt.Eps {
			break
		}
	}
	return m
}

func randProblem(r *rng.RNG, n, dim, numClasses int) ([]*sparse.Vector, []int) {
	xs := make([]*sparse.Vector, n)
	labels := make([]int, n)
	for i := range xs {
		labels[i] = r.Intn(numClasses)
		m := make(map[int32]float64)
		// Give each class a signature region so problems are learnable.
		base := labels[i] * (dim / numClasses)
		for k := 0; k < r.Intn(30)+5; k++ {
			m[int32(base+r.Intn(dim/numClasses))] = r.Float64()
		}
		for k := 0; k < r.Intn(20); k++ {
			m[int32(r.Intn(dim))] = r.Float64() * 0.3
		}
		xs[i] = sparse.FromMap(m)
	}
	return xs, labels
}

func TestTrainOVRMatchesReference(t *testing.T) {
	root := rng.New(77)
	for trial := 0; trial < 6; trial++ {
		r := root.Split(uint64(trial))
		const numClasses, dim = 5, 400
		xs, labels := randProblem(r, 120, dim, numClasses)
		opt := DefaultOptions()
		opt.MaxIters = 60
		opt.Seed = uint64(trial + 1)
		opt.PositiveWeight = 3

		o := TrainOVR(xs, labels, numClasses, dim, opt)
		for k := 0; k < numClasses; k++ {
			ys := make([]int, len(labels))
			for i, l := range labels {
				if l == k {
					ys[i] = 1
				} else {
					ys[i] = -1
				}
			}
			kopt := opt
			kopt.Seed = opt.Seed + uint64(k)*7919
			want := refTrain(xs, ys, dim, kopt)
			got := o.Models[k]
			if got.Bias != want.Bias {
				t.Fatalf("trial %d class %d: bias %v != %v", trial, k, got.Bias, want.Bias)
			}
			for j := range want.W {
				if got.W[j] != want.W[j] {
					t.Fatalf("trial %d class %d: W[%d] %v != %v", trial, k, j, got.W[j], want.W[j])
				}
			}
		}
	}
}

func TestTrainScratchMatchesTrain(t *testing.T) {
	r := rng.New(31)
	xs, labels := randProblem(r, 80, 300, 3)
	ys := make([]int, len(labels))
	for i, l := range labels {
		if l == 0 {
			ys[i] = 1
		} else {
			ys[i] = -1
		}
	}
	opt := DefaultOptions()
	opt.MaxIters = 40
	want := Train(xs, ys, 300, opt)
	var sc Scratch
	for round := 0; round < 3; round++ {
		got := TrainScratch(xs, ys, 300, opt, &sc)
		if got.Bias != want.Bias {
			t.Fatalf("round %d: bias %v != %v", round, got.Bias, want.Bias)
		}
		for j := range want.W {
			if got.W[j] != want.W[j] {
				t.Fatalf("round %d: W[%d] differs", round, j)
			}
		}
	}
}

func TestScoresMatchPerModel(t *testing.T) {
	root := rng.New(53)
	const numClasses, dim = 7, 600
	xs, labels := randProblem(root, 150, dim, numClasses)
	opt := DefaultOptions()
	opt.MaxIters = 40
	o := TrainOVR(xs, labels, numClasses, dim, opt)

	for trial := 0; trial < 100; trial++ {
		r := root.Split(uint64(trial))
		m := make(map[int32]float64)
		for k := 0; k < r.Intn(60)+1; k++ {
			// Include out-of-range indices: the grouped kernel must apply
			// the same >= len(W) cutoff as Model.Score.
			m[int32(r.Intn(dim+200))] = r.Norm()
		}
		x := sparse.FromMap(m)
		got := o.Scores(x)
		for k, mdl := range o.Models {
			if want := mdl.Score(x); got[k] != want {
				t.Fatalf("trial %d class %d: %v != %v", trial, k, got[k], want)
			}
		}
	}
}

func TestScoreAllMatchesScores(t *testing.T) {
	root := rng.New(59)
	const numClasses, dim = 4, 300
	xs, labels := randProblem(root, 90, dim, numClasses)
	opt := DefaultOptions()
	opt.MaxIters = 30
	o := TrainOVR(xs, labels, numClasses, dim, opt)

	all := o.ScoreAll(xs)
	if len(all) != len(xs) {
		t.Fatalf("rows %d != %d", len(all), len(xs))
	}
	for i, x := range xs {
		want := o.Scores(x)
		for k := range want {
			if all[i][k] != want[k] {
				t.Fatalf("row %d class %d: %v != %v", i, k, all[i][k], want[k])
			}
		}
	}
}

func TestScoresHeterogeneousModelsFallback(t *testing.T) {
	// Hand-assembled OVR with mismatched weight lengths must fall back to
	// per-model scoring rather than take the grouped kernel; so must a
	// battery with a nil model, and an empty one.
	w := func(n int) []float64 {
		v := make([]float64, n)
		for j := range v {
			v[j] = float64(j) + 0.25
		}
		return v
	}
	o := &OneVsRest{NumClasses: 5, Models: []*Model{
		{W: w(4), Bias: 1}, {W: w(4), Bias: 2}, {W: w(4), Bias: 3}, {W: w(4), Bias: 4}, {W: w(2), Bias: 5},
	}}
	if _, ok := o.weightDim(); ok {
		t.Fatal("heterogeneous battery took the grouped kernel")
	}
	x := &sparse.Vector{Idx: []int32{0, 1, 3, 8}, Val: []float64{1, -2, 0.5, 7}}
	ref := newFrozenPacked(o)
	got := make([]float64, 5)
	frozen := make([]float64, 5)
	o.ScoresInto(x, got)
	ref.ScoresInto(x, frozen)
	for k, m := range o.Models {
		if want := m.Score(x); got[k] != want || frozen[k] != want {
			t.Fatalf("class %d: fallback %v, frozen %v, per-model %v", k, got[k], frozen[k], want)
		}
	}
	for _, nilAt := range []int{0, 2} {
		o := &OneVsRest{NumClasses: 3, Models: []*Model{{W: w(3)}, {W: w(3)}, {W: w(3)}}}
		o.Models[nilAt] = nil
		if _, ok := o.weightDim(); ok {
			t.Fatalf("battery with a nil model at %d took the grouped kernel", nilAt)
		}
	}
	if _, ok := (&OneVsRest{}).weightDim(); ok {
		t.Fatal("empty battery took the grouped kernel")
	}
}

// TestTrainScratchAllocs pins the satellite requirement: with a warm
// Scratch, repeated training allocates only the returned model (weight
// slice + header), not the solver's working set.
func TestTrainScratchAllocs(t *testing.T) {
	r := rng.New(41)
	xs, labels := randProblem(r, 60, 200, 2)
	ys := make([]int, len(labels))
	for i, l := range labels {
		if l == 0 {
			ys[i] = 1
		} else {
			ys[i] = -1
		}
	}
	opt := DefaultOptions()
	opt.MaxIters = 10
	var sc Scratch
	TrainScratch(xs, ys, 200, opt, &sc) // warm the buffers
	allocs := testing.AllocsPerRun(20, func() {
		TrainScratch(xs, ys, 200, opt, &sc)
	})
	// Model struct + W slice + the solver's rng; everything else reused.
	if allocs > 6 {
		t.Fatalf("TrainScratch allocates %v objects per run with warm scratch", allocs)
	}
}

func TestScoresIntoAllocs(t *testing.T) {
	r := rng.New(43)
	xs, labels := randProblem(r, 60, 200, 3)
	opt := DefaultOptions()
	opt.MaxIters = 10
	o := TrainOVR(xs, labels, 3, 200, opt)
	out := make([]float64, 3)
	allocs := testing.AllocsPerRun(50, func() {
		o.ScoresInto(xs[0], out)
	})
	if allocs != 0 {
		t.Fatalf("ScoresInto allocates %v per run", allocs)
	}
}

func BenchmarkTrainOVR(b *testing.B) {
	r := rng.New(61)
	const numClasses, dim = 23, 3540
	xs, labels := randProblem(r, 400, dim, numClasses)
	opt := DefaultOptions()
	opt.MaxIters = 30
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		o := TrainOVR(xs, labels, numClasses, dim, opt)
		if o.Models[0] == nil {
			b.Fatal("nil model")
		}
	}
}

func BenchmarkScoreAll(b *testing.B) {
	r := rng.New(67)
	const numClasses, dim = 23, 3540
	xs, labels := randProblem(r, 400, dim, numClasses)
	opt := DefaultOptions()
	opt.MaxIters = 20
	o := TrainOVR(xs, labels, numClasses, dim, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		out := o.ScoreAll(xs)
		if len(out) != len(xs) {
			b.Fatal("bad rows")
		}
	}
}
