package nnet

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// blobs generates a k-class Gaussian blob dataset in 2-D.
func blobs(r *rng.RNG, n, k int) (x [][]float64, y []int) {
	for i := 0; i < n; i++ {
		c := i % k
		angle := 2 * math.Pi * float64(c) / float64(k)
		x = append(x, []float64{
			3*math.Cos(angle) + 0.5*r.Norm(),
			3*math.Sin(angle) + 0.5*r.Norm(),
		})
		y = append(y, c)
	}
	return x, y
}

func TestPredictIsDistribution(t *testing.T) {
	r := rng.New(1)
	m := New(r, 4, 8, 3)
	p := m.Predict([]float64{1, -1, 0.5, 2})
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("probability %v out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sums to %v", sum)
	}
}

func TestTrainLearnsBlobs(t *testing.T) {
	r := rng.New(2)
	x, y := blobs(r, 600, 3)
	devX, devY := blobs(r, 200, 3)
	m := New(r, 2, 16, 3)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 30
	acc := m.Train(r, x, y, devX, devY, cfg)
	if acc < 0.95 {
		t.Fatalf("dev accuracy %v < 0.95", acc)
	}
}

func TestDeepNetworkLearnsXOR(t *testing.T) {
	// XOR is not linearly separable; requires the hidden layer to work.
	r := rng.New(3)
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		a, b := r.Intn(2), r.Intn(2)
		x = append(x, []float64{float64(a) + 0.1*r.Norm(), float64(b) + 0.1*r.Norm()})
		y = append(y, a^b)
	}
	m := New(r, 2, 8, 8, 2)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 120
	cfg.LearnRate = 0.5
	acc := m.Train(r, x, y, nil, nil, cfg)
	if acc < 0.95 {
		t.Fatalf("XOR accuracy %v", acc)
	}
}

func TestTrainReducesCrossEntropy(t *testing.T) {
	r := rng.New(4)
	x, y := blobs(r, 300, 4)
	m := New(r, 2, 12, 4)
	before := m.CrossEntropy(x, y)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	m.Train(r, x, y, nil, nil, cfg)
	after := m.CrossEntropy(x, y)
	if after >= before {
		t.Fatalf("cross entropy did not decrease: %v -> %v", before, after)
	}
}

func TestLogPredictFinite(t *testing.T) {
	r := rng.New(5)
	m := New(r, 3, 5, 4)
	lp := m.LogPredict([]float64{100, -100, 0})
	for i, v := range lp {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("log posterior %d = %v", i, v)
		}
	}
}

func TestClassifyAgreesWithPredict(t *testing.T) {
	r := rng.New(6)
	m := New(r, 2, 6, 5)
	for i := 0; i < 20; i++ {
		x := []float64{r.Norm(), r.Norm()}
		p := m.Predict(x)
		best := 0
		for j, v := range p {
			if v > p[best] {
				best = j
			}
		}
		if m.Classify(x) != best {
			t.Fatal("Classify disagrees with Predict argmax")
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	mk := func() *MLP {
		r := rng.New(7)
		x, y := blobs(r, 200, 3)
		m := New(r, 2, 8, 3)
		cfg := DefaultTrainConfig()
		cfg.Epochs = 5
		m.Train(r, x, y, nil, nil, cfg)
		return m
	}
	a, b := mk(), mk()
	for l := range a.W {
		for i := range a.W[l] {
			if a.W[l][i] != b.W[l][i] {
				t.Fatal("training not deterministic")
			}
		}
	}
}

func TestPretrainImprovesInit(t *testing.T) {
	// Pre-training should not break the network and should produce finite
	// weights; on blobs it should keep (or improve) trainability.
	r := rng.New(8)
	x, y := blobs(r, 300, 3)
	m := New(r, 2, 10, 10, 3)
	m.Pretrain(r, x, 3, 0.01, 0.1)
	for l := range m.W {
		for _, w := range m.W[l] {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatal("pretraining produced non-finite weight")
			}
		}
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 30
	acc := m.Train(r, x, y, nil, nil, cfg)
	if acc < 0.9 {
		t.Fatalf("accuracy after pretraining+training = %v", acc)
	}
}

func TestEmptyTrainSet(t *testing.T) {
	r := rng.New(9)
	m := New(r, 2, 4, 2)
	if acc := m.Train(r, nil, nil, nil, nil, DefaultTrainConfig()); acc != 0 {
		t.Fatalf("Train on empty set = %v", acc)
	}
}

func TestStringAndShape(t *testing.T) {
	r := rng.New(10)
	m := New(r, 3, 7, 2)
	if len(m.W[0]) != 21 || len(m.W[1]) != 14 {
		t.Fatal("weight shapes wrong")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a single layer")
		}
	}()
	New(rng.New(1), 5)
}

// TestBackpropMatchesNumericGradient is the canonical backprop check: the
// analytic gradient of the cross-entropy loss must match centered finite
// differences on every weight and bias of a small network.
func TestBackpropMatchesNumericGradient(t *testing.T) {
	r := rng.New(20)
	m := New(r, 3, 4, 3)
	x := []float64{0.5, -1.2, 0.8}
	label := 2

	// Analytic gradients via one backward pass.
	acts := m.newActs()
	deltas := make([][]float64, len(m.Sizes))
	for i, s := range m.Sizes {
		deltas[i] = make([]float64, s)
	}
	gW := make([][]float64, len(m.W))
	gB := make([][]float64, len(m.B))
	for l := range m.W {
		gW[l] = make([]float64, len(m.W[l]))
		gB[l] = make([]float64, len(m.B[l]))
	}
	m.forward(x, acts)
	m.backward(x, label, acts, deltas, gW, gB)

	loss := func() float64 {
		p := m.Predict(x)
		return -math.Log(p[label])
	}
	const eps = 1e-6
	checkGrad := func(param *float64, analytic float64, what string) {
		orig := *param
		*param = orig + eps
		up := loss()
		*param = orig - eps
		down := loss()
		*param = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
			t.Fatalf("%s: analytic %v vs numeric %v", what, analytic, numeric)
		}
	}
	for l := range m.W {
		for i := range m.W[l] {
			checkGrad(&m.W[l][i], gW[l][i], "weight")
		}
		for i := range m.B[l] {
			checkGrad(&m.B[l][i], gB[l][i], "bias")
		}
	}
}

// No binary links this; the package's tests use it as a referee or
// fixture.

// CrossEntropy returns the mean cross-entropy loss over the dataset.
func (m *MLP) CrossEntropy(x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	var loss float64
	for i := range x {
		p := m.Predict(x[i])
		v := p[y[i]]
		if v < 1e-30 {
			v = 1e-30
		}
		loss -= math.Log(v)
	}
	return loss / float64(len(x))
}
