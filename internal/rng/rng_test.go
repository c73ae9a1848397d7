package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws", same)
	}
}

func TestSplitOrderIndependent(t *testing.T) {
	p1 := New(7)
	c1 := p1.Split(3)
	p2 := New(7)
	_ = p2.Split(9) // unrelated split must not perturb Split(3)
	c2 := p2.Split(3)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
}

func TestSplitStreamsIndependent(t *testing.T) {
	p := New(7)
	a, b := p.Split(1), p.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split(1) and split(2) collided %d times", same)
	}
}

func TestSplitString(t *testing.T) {
	p := New(7)
	a := p.SplitString("hungarian")
	b := p.SplitString("hungarian")
	c := p.SplitString("czech")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same string label produced different streams")
	}
	if a.Uint64() == c.Uint64() {
		t.Fatal("different string labels produced identical draws")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for k, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("Intn(7) bucket %d has count %d, expected ~10000", k, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(6)
	for _, alpha := range []float64{0.5, 1, 2.5, 8} {
		n := 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += r.Gamma(alpha)
		}
		mean := sum / float64(n)
		if math.Abs(mean-alpha) > 0.08*alpha+0.02 {
			t.Errorf("Gamma(%v) mean = %v, want ~%v", alpha, mean, alpha)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(8)
	out := make([]float64, 23)
	for trial := 0; trial < 100; trial++ {
		r.Dirichlet(0.7, out)
		var sum float64
		for _, x := range out {
			if x < 0 {
				t.Fatal("negative Dirichlet component")
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet sums to %v", sum)
		}
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(10)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("categorical ratio = %v, want ~3", ratio)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(13)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	p := float64(hits) / 100000
	if math.Abs(p-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) rate = %v", p)
	}
}

func TestExpMean(t *testing.T) {
	r := New(14)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	if m := sum / float64(n); math.Abs(m-1) > 0.03 {
		t.Errorf("Exp mean = %v, want ~1", m)
	}
}
