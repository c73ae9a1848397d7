package gmm

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// twoClusterData draws points from two well-separated Gaussians.
func twoClusterData(r *rng.RNG, n int) [][]float64 {
	data := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		x := make([]float64, 2)
		if i%2 == 0 {
			x[0] = r.NormMuSigma(-3, 0.5)
			x[1] = r.NormMuSigma(0, 0.5)
		} else {
			x[0] = r.NormMuSigma(3, 0.5)
			x[1] = r.NormMuSigma(1, 0.5)
		}
		data = append(data, x)
	}
	return data
}

func TestSingleGaussianMLE(t *testing.T) {
	r := rng.New(1)
	data := make([][]float64, 5000)
	for i := range data {
		data[i] = []float64{r.NormMuSigma(2, 1.5), r.NormMuSigma(-1, 0.8)}
	}
	g := New(2, 1)
	g.TrainEM(data, 5)
	if math.Abs(g.Means[0][0]-2) > 0.1 || math.Abs(g.Means[0][1]+1) > 0.1 {
		t.Fatalf("mean = %v", g.Means[0])
	}
	if math.Abs(g.Vars[0][0]-2.25) > 0.25 || math.Abs(g.Vars[0][1]-0.64) > 0.1 {
		t.Fatalf("vars = %v", g.Vars[0])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoComponentsRecovered(t *testing.T) {
	r := rng.New(2)
	data := twoClusterData(r, 4000)
	g := Train(r, data, 2, 2, 10, 15)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// One component near (−3,0), the other near (3,1); order free.
	m0, m1 := g.Means[0], g.Means[1]
	if m0[0] > m1[0] {
		m0, m1 = m1, m0
	}
	if math.Abs(m0[0]+3) > 0.3 || math.Abs(m1[0]-3) > 0.3 {
		t.Fatalf("means not recovered: %v %v", m0, m1)
	}
	for _, w := range g.Weights {
		if math.Abs(w-0.5) > 0.1 {
			t.Fatalf("weights = %v", g.Weights)
		}
	}
}

func TestEMImprovesLikelihood(t *testing.T) {
	r := rng.New(3)
	data := twoClusterData(r, 1000)
	g := New(2, 4)
	g.KMeansInit(r, data, 3)
	ll1 := g.TrainEM(data, 1)
	ll5 := g.TrainEM(data, 5)
	if ll5 < ll1-1e-9 {
		t.Fatalf("EM decreased likelihood: %v -> %v", ll1, ll5)
	}
}

func TestLogProbMatchesClosedForm(t *testing.T) {
	g := New(1, 1)
	g.Means[0][0] = 0
	g.Vars[0][0] = 1
	g.Weights[0] = 1
	g.RefreshCache()
	// Standard normal at 0: log(1/sqrt(2π)).
	want := -0.5 * math.Log(2*math.Pi)
	if got := g.LogProb([]float64{0}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogProb = %v, want %v", got, want)
	}
	// At x=2: −0.5·log(2π) − 2.
	if got := g.LogProb([]float64{2}); math.Abs(got-(want-2)) > 1e-12 {
		t.Fatalf("LogProb(2) = %v", got)
	}
}

func TestPosteriorsSumToOne(t *testing.T) {
	r := rng.New(4)
	data := twoClusterData(r, 500)
	g := Train(r, data, 2, 3, 5, 5)
	post := make([]float64, 3)
	for _, x := range data[:50] {
		g.Posteriors(x, post)
		var s float64
		for _, p := range post {
			if p < 0 {
				t.Fatal("negative posterior")
			}
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("posteriors sum to %v", s)
		}
	}
}

func TestPosteriorsIdentifyCluster(t *testing.T) {
	r := rng.New(5)
	data := twoClusterData(r, 2000)
	g := Train(r, data, 2, 2, 10, 10)
	post := make([]float64, 2)
	// A point far left should strongly prefer the left component.
	g.Posteriors([]float64{-3, 0}, post)
	leftComp := 0
	if g.Means[1][0] < g.Means[0][0] {
		leftComp = 1
	}
	if post[leftComp] < 0.99 {
		t.Fatalf("left point posterior = %v", post)
	}
}

func TestHeldOutLogProb(t *testing.T) {
	// Fresh points from the distribution the model was trained on should
	// score well under it.
	r := rng.New(6)
	data := twoClusterData(r, 2000)
	g := Train(r, data, 2, 2, 10, 10)
	var ll float64
	n := 500
	for _, x := range twoClusterData(r, n) {
		ll += g.LogProb(x)
	}
	ll /= float64(n)
	// Per-point LL should be near the training LL (≈ −2±0.5 here).
	if ll < -4 || ll > 0 {
		t.Fatalf("sample LL = %v, implausible", ll)
	}
}

func TestWeightedEM(t *testing.T) {
	r := rng.New(7)
	// Two clusters, but zero-weight the right one: model should fit left.
	data := twoClusterData(r, 2000)
	w := make([]float64, len(data))
	for i := range w {
		if data[i][0] < 0 {
			w[i] = 1
		}
	}
	g := New(2, 1)
	g.TrainEMWeighted(data, w, 10)
	if math.Abs(g.Means[0][0]+3) > 0.3 {
		t.Fatalf("weighted EM mean = %v, want ≈−3", g.Means[0])
	}
}

func TestVarianceFloor(t *testing.T) {
	// Degenerate data (all identical) must not collapse variances to 0.
	data := make([][]float64, 100)
	for i := range data {
		data[i] = []float64{1, 2}
	}
	g := New(2, 2)
	r := rng.New(8)
	g.KMeansInit(r, data, 3)
	g.TrainEM(data, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(g.LogProb([]float64{1, 2}), 0) && math.IsNaN(g.LogProb([]float64{1, 2})) {
		t.Fatal("NaN log prob on degenerate data")
	}
}

func TestEmptyData(t *testing.T) {
	g := New(2, 2)
	if ll := g.TrainEM(nil, 3); !math.IsInf(ll, -1) {
		t.Fatalf("TrainEM(nil) = %v", ll)
	}
}
