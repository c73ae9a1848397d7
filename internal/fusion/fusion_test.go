package fusion

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestTrials(t *testing.T) {
	mats := [][][]float64{
		{{1, 2}, {3, 4}}, // subsystem 0: 2 utts × 2 langs
		{{5, 6}, {7, 8}}, // subsystem 1
	}
	labels := []int{0, 1}
	x, y := Trials(mats, nil, labels, nil)
	// Utterance-major, one feature per subsystem, target when k == label.
	wantX := [][]float64{{1, 5}, {2, 6}, {3, 7}, {4, 8}}
	wantY := []int{1, 0, 0, 1}
	if len(x) != len(wantX) || len(y) != len(wantY) {
		t.Fatalf("%d trials, %d labels; want %d", len(x), len(y), len(wantX))
	}
	for i := range wantX {
		if y[i] != wantY[i] || x[i][0] != wantX[i][0] || x[i][1] != wantX[i][1] || len(x[i]) != 2 {
			t.Fatalf("trial %d = %v/%d, want %v/%d", i, x[i], y[i], wantX[i], wantY[i])
		}
	}
	weighted, _ := Trials(mats, []float64{1, 0}, labels, nil)
	if weighted[1][0] != 2 || weighted[1][1] != 0 {
		t.Fatalf("weighted trial 1 = %v", weighted[1])
	}
	sub, subY := Trials(mats, nil, labels, []int{1})
	if len(sub) != 2 || sub[0][0] != 3 || sub[1][1] != 8 || subY[0] != 0 || subY[1] != 1 {
		t.Fatalf("idx {1}: %v %v", sub, subY)
	}
}

func TestSelectionWeights(t *testing.T) {
	w := SelectionWeights([]int{30, 10})
	if math.Abs(w[0]-0.75) > 1e-12 || math.Abs(w[1]-0.25) > 1e-12 {
		t.Fatalf("weights = %v", w)
	}
	uniform := SelectionWeights([]int{0, 0, 0})
	for _, v := range uniform {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("zero counts → %v", uniform)
		}
	}
}

// fusionData builds K-class score-like data: informative block per class
// plus correlated noise, in D=K*Q dims mimicking stacked subsystem scores.
func fusionData(r *rng.RNG, n, numClasses, numSubs int) (x [][]float64, labels []int) {
	d := numClasses * numSubs
	for i := 0; i < n; i++ {
		k := i % numClasses
		row := make([]float64, d)
		for q := 0; q < numSubs; q++ {
			for c := 0; c < numClasses; c++ {
				v := -1.0 + 0.6*r.Norm()
				if c == k {
					v = 1.0 + 0.6*r.Norm()
				}
				row[q*numClasses+c] = v
			}
		}
		x = append(x, row)
		labels = append(labels, k)
	}
	return x, labels
}

func TestTrainAndScore(t *testing.T) {
	r := rng.New(1)
	x, labels := fusionData(r, 600, 5, 3)
	b, err := Train(x, labels, 5, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	testX, testLabels := fusionData(r, 300, 5, 3)
	if acc := b.Accuracy(testX, testLabels); acc < 0.9 {
		t.Fatalf("fusion accuracy %v", acc)
	}
}

func TestScoreSignConvention(t *testing.T) {
	r := rng.New(2)
	x, labels := fusionData(r, 400, 4, 2)
	b, err := Train(x, labels, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A clean class-0 vector should have positive score for class 0 and
	// negative for the others (log-odds convention).
	probe, _ := fusionData(rng.New(3), 4, 4, 2)
	s := b.Score(probe[0]) // class 0 by construction
	if s[0] <= 0 {
		t.Fatalf("target log-odds %v not positive", s[0])
	}
	for k := 1; k < 4; k++ {
		if s[k] >= s[0] {
			t.Fatalf("non-target %d scored %v >= target %v", k, s[k], s[0])
		}
	}
}

func TestMMIImprovesOverLDAOnly(t *testing.T) {
	// Overlapping classes with unequal spreads: MMI refinement should not
	// hurt and usually helps posterior-based accuracy.
	r := rng.New(4)
	x, labels := fusionData(r, 800, 6, 2)
	// Make it harder: add bias to one class's scores.
	for i := range x {
		if labels[i] == 2 {
			for j := range x[i] {
				x[i][j] += 0.8
			}
		}
	}
	cfgNoMMI := DefaultConfig()
	cfgNoMMI.MMIIters = 0
	cfgMMI := DefaultConfig()
	cfgMMI.MMIIters = 60
	bNo, err := Train(x, labels, 6, cfgNoMMI)
	if err != nil {
		t.Fatal(err)
	}
	bYes, err := Train(x, labels, 6, cfgMMI)
	if err != nil {
		t.Fatal(err)
	}
	accNo := bNo.Accuracy(x, labels)
	accYes := bYes.Accuracy(x, labels)
	if accYes < accNo-0.02 {
		t.Fatalf("MMI hurt: %v -> %v", accNo, accYes)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, 3, DefaultConfig()); err == nil {
		t.Fatal("accepted empty data")
	}
	if _, err := Train([][]float64{{1, 2}}, []int{0, 1}, 2, DefaultConfig()); err == nil {
		t.Fatal("accepted length mismatch")
	}
}

func TestProjectionShape(t *testing.T) {
	r := rng.New(5)
	x, labels := fusionData(r, 300, 4, 3) // D = 12
	b, err := Train(x, labels, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// OutDim defaults to K−1 = 3.
	if b.Projection.Rows != 3 || b.Projection.Cols != 12 {
		t.Fatalf("projection %dx%d", b.Projection.Rows, b.Projection.Cols)
	}
}

func TestPriorsNormalized(t *testing.T) {
	r := rng.New(6)
	x, labels := fusionData(r, 200, 3, 2)
	b, err := Train(x, labels, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, lp := range b.LogPriors {
		sum += math.Exp(lp)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("priors sum to %v", sum)
	}
}

// No binary links this; the package's tests use it as a referee or
// fixture.

// Accuracy is a convenience diagnostic.
func (b *Backend) Accuracy(x [][]float64, labels []int) float64 {
	if len(x) == 0 {
		return 0
	}
	correct := 0
	for i, xi := range x {
		s := b.Score(xi)
		best := 0
		for k, v := range s {
			if v > s[best] {
				best = k
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}
