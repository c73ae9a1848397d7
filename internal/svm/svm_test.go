package svm

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// separableData generates ±1-labeled points linearly separable along a
// random direction, in sparse form.
func separableData(r *rng.RNG, n, dim int, margin float64) (xs []*sparse.Vector, ys []int) {
	w := make([]float64, dim)
	for i := range w {
		w[i] = r.Norm()
	}
	nrm := 0.0
	for _, v := range w {
		nrm += v * v
	}
	nrm = math.Sqrt(nrm)
	for i := range w {
		w[i] /= nrm
	}
	for len(xs) < n {
		x := make([]float64, dim)
		for j := range x {
			if r.Bernoulli(0.5) {
				x[j] = r.Norm()
			}
		}
		var dot float64
		for j := range x {
			dot += w[j] * x[j]
		}
		if math.Abs(dot) < margin {
			continue
		}
		xs = append(xs, sparse.FromDense(x))
		if dot > 0 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, -1)
		}
	}
	return xs, ys
}

func TestTrainSeparable(t *testing.T) {
	r := rng.New(1)
	xs, ys := separableData(r, 300, 20, 0.5)
	m := Train(xs, ys, 20, DefaultOptions())
	errs := 0
	for i, x := range xs {
		if (m.Score(x) > 0) != (ys[i] > 0) {
			errs++
		}
	}
	if errs > 3 {
		t.Fatalf("%d training errors on separable data", errs)
	}
}

func TestTrainGeneralizes(t *testing.T) {
	r := rng.New(2)
	// Same generator for train and test.
	gen := func(seed uint64) ([]*sparse.Vector, []int) {
		rr := rng.New(seed)
		var xs []*sparse.Vector
		var ys []int
		for i := 0; i < 300; i++ {
			x := make([]float64, 10)
			y := 1
			if rr.Bernoulli(0.5) {
				y = -1
			}
			for j := range x {
				x[j] = rr.Norm()
			}
			x[0] += float64(y) * 2 // informative dimension
			xs = append(xs, sparse.FromDense(x))
			ys = append(ys, y)
		}
		return xs, ys
	}
	_ = r
	trainX, trainY := gen(10)
	testX, testY := gen(20)
	m := Train(trainX, trainY, 10, DefaultOptions())
	errs := 0
	for i, x := range testX {
		if (m.Score(x) > 0) != (testY[i] > 0) {
			errs++
		}
	}
	if rate := float64(errs) / float64(len(testX)); rate > 0.1 {
		t.Fatalf("test error rate %v", rate)
	}
}

func TestScoreSignConvention(t *testing.T) {
	// Positive class on +x axis: score of far-positive point must be > 0.
	xs := []*sparse.Vector{
		sparse.FromDense([]float64{2}),
		sparse.FromDense([]float64{-2}),
		sparse.FromDense([]float64{3}),
		sparse.FromDense([]float64{-3}),
	}
	ys := []int{1, -1, 1, -1}
	m := Train(xs, ys, 1, DefaultOptions())
	if m.Score(sparse.FromDense([]float64{5})) <= 0 {
		t.Fatal("positive point scored negative")
	}
	if m.Score(sparse.FromDense([]float64{-5})) >= 0 {
		t.Fatal("negative point scored positive")
	}
}

func TestMarginProperty(t *testing.T) {
	// Support vectors end near |score| ≈ 1 for separable data with large C.
	xs := []*sparse.Vector{
		sparse.FromDense([]float64{1}),
		sparse.FromDense([]float64{-1}),
	}
	ys := []int{1, -1}
	opt := DefaultOptions()
	opt.C = 100
	opt.MaxIters = 2000
	opt.Eps = 1e-6
	m := Train(xs, ys, 1, opt)
	if math.Abs(m.Score(xs[0])-1) > 0.05 || math.Abs(m.Score(xs[1])+1) > 0.05 {
		t.Fatalf("margins: %v, %v", m.Score(xs[0]), m.Score(xs[1]))
	}
}

func TestPositiveWeightShiftsBoundary(t *testing.T) {
	// Imbalanced data: 1 positive vs many negatives near it. A higher
	// positive weight should increase the positive example's score.
	var xs []*sparse.Vector
	var ys []int
	xs = append(xs, sparse.FromDense([]float64{0.5}))
	ys = append(ys, 1)
	r := rng.New(3)
	for i := 0; i < 30; i++ {
		xs = append(xs, sparse.FromDense([]float64{-0.5 + 0.1*r.Norm()}))
		ys = append(ys, -1)
	}
	optLow := DefaultOptions()
	optLow.PositiveWeight = 1
	optHigh := DefaultOptions()
	optHigh.PositiveWeight = 20
	mLow := Train(xs, ys, 1, optLow)
	mHigh := Train(xs, ys, 1, optHigh)
	if mHigh.Score(xs[0]) <= mLow.Score(xs[0]) {
		t.Fatalf("positive weight had no effect: %v vs %v", mHigh.Score(xs[0]), mLow.Score(xs[0]))
	}
}

func TestOneVsRest(t *testing.T) {
	// 4 classes at distinct corners in 2-D.
	r := rng.New(4)
	var xs []*sparse.Vector
	var labels []int
	centers := [][]float64{{3, 3}, {-3, 3}, {-3, -3}, {3, -3}}
	for i := 0; i < 400; i++ {
		c := i % 4
		xs = append(xs, sparse.FromDense([]float64{
			centers[c][0] + 0.5*r.Norm(),
			centers[c][1] + 0.5*r.Norm(),
		}))
		labels = append(labels, c)
	}
	o := TrainOVR(xs, labels, 4, 2, DefaultOptions())
	if acc := o.Accuracy(xs, labels); acc < 0.98 {
		t.Fatalf("OvR accuracy = %v", acc)
	}
	s := o.Scores(xs[0])
	if len(s) != 4 {
		t.Fatalf("scores len = %d", len(s))
	}
	// The true class should be the unique positive score for a clean point.
	if s[0] <= 0 {
		t.Fatalf("target class score %v not positive", s[0])
	}
	for k := 1; k < 4; k++ {
		if s[k] >= s[0] {
			t.Fatalf("non-target score %v >= target %v", s[k], s[0])
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	r := rng.New(5)
	xs, ys := separableData(r, 100, 8, 0.3)
	a := Train(xs, ys, 8, DefaultOptions())
	b := Train(xs, ys, 8, DefaultOptions())
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatal("training not deterministic")
		}
	}
	if a.Bias != b.Bias {
		t.Fatal("bias not deterministic")
	}
}

func TestEmptyTraining(t *testing.T) {
	m := Train(nil, nil, 5, DefaultOptions())
	if m.Score(sparse.FromDense([]float64{1, 1, 1, 1, 1})) != 0 {
		t.Fatal("empty model should score 0")
	}
}

func TestSparseHighDimensional(t *testing.T) {
	// Supervector-like regime: dim ≫ n, few non-zeros.
	r := rng.New(6)
	dim := 5000
	var xs []*sparse.Vector
	var ys []int
	for i := 0; i < 100; i++ {
		m := map[int32]float64{}
		y := 1
		if i%2 == 1 {
			y = -1
		}
		// Class-informative index blocks.
		base := int32(0)
		if y < 0 {
			base = 2500
		}
		for j := 0; j < 20; j++ {
			m[base+int32(r.Intn(2500))] = r.Float64()
		}
		xs = append(xs, sparse.FromMap(m))
		ys = append(ys, y)
	}
	mdl := Train(xs, ys, dim, DefaultOptions())
	errs := 0
	for i, x := range xs {
		if (mdl.Score(x) > 0) != (ys[i] > 0) {
			errs++
		}
	}
	if errs > 2 {
		t.Fatalf("%d errors in sparse regime", errs)
	}
}

// No binary links these; the package's tests use them as referees or
// fixtures.

// Train fits a binary SVM. ys must be ±1; dim is the feature dimension
// (indices ≥ dim are ignored).
func Train(xs []*sparse.Vector, ys []int, dim int, opt Options) *Model {
	return trainInto(xs, ys, nil, dim, opt, nil)
}

// TrainScratch is Train with caller-provided working buffers; repeated
// calls (DBA retraining) allocate only the model itself.
func TrainScratch(xs []*sparse.Vector, ys []int, dim int, opt Options, sc *Scratch) *Model {
	return trainInto(xs, ys, nil, dim, opt, sc)
}
