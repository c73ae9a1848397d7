package ngram

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/lattice"
	"repro/internal/rng"
	"repro/internal/sparse"
)

func TestSpaceDim(t *testing.T) {
	s := NewSpace(43, 2)
	if s.Dim() != 43+43*43 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	s3 := NewSpace(10, 3)
	if s3.Dim() != 10+100+1000 {
		t.Fatalf("order-3 Dim = %d", s3.Dim())
	}
}

func TestIndexDecodeRoundTrip(t *testing.T) {
	s := NewSpace(7, 3)
	r := rng.New(1)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		n := rr.Intn(3) + 1
		gram := make([]int, n)
		for i := range gram {
			gram[i] = rr.Intn(7)
		}
		idx := s.Index(gram)
		if idx < 0 || int(idx) >= s.Dim() {
			return false
		}
		back := s.Decode(idx)
		if len(back) != n {
			return false
		}
		for i := range gram {
			if back[i] != gram[i] {
				return false
			}
		}
		return s.OrderOf(idx) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIndexUnique(t *testing.T) {
	s := NewSpace(5, 2)
	seen := make(map[int32]bool)
	for a := 0; a < 5; a++ {
		if idx := s.Index([]int{a}); seen[idx] {
			t.Fatal("duplicate unigram index")
		} else {
			seen[idx] = true
		}
		for b := 0; b < 5; b++ {
			if idx := s.Index([]int{a, b}); seen[idx] {
				t.Fatal("duplicate bigram index")
			} else {
				seen[idx] = true
			}
		}
	}
	if len(seen) != s.Dim() {
		t.Fatalf("covered %d of %d indices", len(seen), s.Dim())
	}
}

func TestIndexPanics(t *testing.T) {
	s := NewSpace(5, 2)
	for _, gram := range [][]int{{}, {1, 2, 3}, {5}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index accepted %v", gram)
				}
			}()
			s.Index(gram)
		}()
	}
}

func TestSupervectorFromString(t *testing.T) {
	// Phone string 0 1 0: unigrams {0:2/3, 1:1/3}; bigrams {01:1/2, 10:1/2}.
	s := NewSpace(3, 2)
	l := lattice.FromString([]int{0, 1, 0})
	v := s.Supervector(l)
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := v.At(s.Index([]int{0})); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("p(0) = %v", got)
	}
	if got := v.At(s.Index([]int{1})); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("p(1) = %v", got)
	}
	if got := v.At(s.Index([]int{0, 1})); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("p(01) = %v", got)
	}
	if got := v.At(s.Index([]int{1, 0})); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("p(10) = %v", got)
	}
	if got := v.At(s.Index([]int{1, 1})); got != 0 {
		t.Fatalf("p(11) = %v", got)
	}
}

func TestSupervectorOrderBlocksSumToOne(t *testing.T) {
	s := NewSpace(4, 2)
	slots := []lattice.SausageSlot{
		{{Phone: 0, Prob: 0.5}, {Phone: 1, Prob: 0.5}},
		{{Phone: 2, Prob: 0.7}, {Phone: 3, Prob: 0.3}},
		{{Phone: 1, Prob: 1.0}},
	}
	v := s.Supervector(lattice.FromSausage(slots))
	sums := make([]float64, 2)
	for k, idx := range v.Idx {
		sums[s.OrderOf(idx)-1] += v.Val[k]
	}
	for n, sum := range sums {
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("order-%d block sums to %v", n+1, sum)
		}
	}
}

func TestSupervectorLatticeVsOneBest(t *testing.T) {
	// A sausage with a dominant path should give a supervector close to,
	// but smoother than, the 1-best string's.
	s := NewSpace(4, 2)
	slots := []lattice.SausageSlot{
		{{Phone: 0, Prob: 0.9}, {Phone: 1, Prob: 0.1}},
		{{Phone: 2, Prob: 0.9}, {Phone: 3, Prob: 0.1}},
	}
	vl := s.Supervector(lattice.FromSausage(slots))
	vs := s.Supervector(lattice.FromString([]int{0, 2}))
	dot := sparse.Dot(vl, vs)
	if dot <= 0 {
		t.Fatal("lattice and 1-best supervectors orthogonal")
	}
	// Lattice vector must contain mass on the alternative bigram (1,3).
	if vl.At(s.Index([]int{1, 3})) <= 0 {
		t.Fatal("lattice alternatives lost")
	}
	if vs.At(s.Index([]int{1, 3})) != 0 {
		t.Fatal("1-best supervector has phantom mass")
	}
}

func TestTFLLRScaling(t *testing.T) {
	dim := 10
	// Background: index 0 frequent (p=0.9), index 1 rare (p=0.1).
	bg := []*sparse.Vector{
		sparse.FromMap(map[int32]float64{0: 0.9, 1: 0.1}),
	}
	tf := EstimateTFLLR(bg, dim, 1e-5)
	if tf.Dim() != dim {
		t.Fatalf("Dim = %d", tf.Dim())
	}
	v := sparse.FromMap(map[int32]float64{0: 1, 1: 1})
	tf.Apply(v)
	// Rare grams get boosted more: 1/√0.1 > 1/√0.9.
	if v.At(1) <= v.At(0) {
		t.Fatalf("TFLLR did not upweight rare gram: %v vs %v", v.At(1), v.At(0))
	}
	if math.Abs(v.At(0)-1/math.Sqrt(0.9)) > 1e-9 {
		t.Fatalf("scale(0) = %v", v.At(0))
	}
}

func TestTFLLRKernelEqualsScaledDot(t *testing.T) {
	// Eq. 5: K(x,y) = Σ x_q·y_q / p_all_q equals dot of scaled vectors.
	dim := 6
	bgv := sparse.FromMap(map[int32]float64{0: 0.3, 1: 0.2, 2: 0.5})
	tf := EstimateTFLLR([]*sparse.Vector{bgv}, dim, 1e-5)
	x := sparse.FromMap(map[int32]float64{0: 0.5, 2: 0.5})
	y := sparse.FromMap(map[int32]float64{0: 0.25, 1: 0.25, 2: 0.5})
	// Direct kernel.
	var want float64
	for q := int32(0); q < int32(dim); q++ {
		p := bgv.At(q)
		if p < 1e-5 {
			p = 1e-5
		}
		want += x.At(q) * y.At(q) / p
	}
	xs, ys := x.Clone(), y.Clone()
	tf.Apply(xs)
	tf.Apply(ys)
	got := sparse.Dot(xs, ys)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("kernel mismatch: %v vs %v", got, want)
	}
}

func TestTFLLRUnseenFloor(t *testing.T) {
	tf := EstimateTFLLR(nil, 4, 1e-4)
	v := sparse.FromMap(map[int32]float64{3: 1})
	tf.Apply(v)
	if math.Abs(v.At(3)-100) > 1e-9 { // 1/√1e-4 = 100
		t.Fatalf("floor scale = %v", v.At(3))
	}
}

func TestNewSpaceOverflowGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accepted overflowing space")
		}
	}()
	NewSpace(64, 6) // 64^6 ≈ 6.9e10 > MaxInt32
}

// No binary links this; the package's tests use it as a referee or
// fixture.

// Decode inverts Index, returning the phone tuple for a supervector index.
func (s *Space) Decode(idx int32) []int {
	order := 1
	for order < s.Order && idx >= s.offsets[order] {
		order++
	}
	if order > 1 && idx < s.offsets[order-1] {
		order--
	}
	rel := idx - s.offsets[order-1]
	gram := make([]int, order)
	for i := order - 1; i >= 0; i-- {
		gram[i] = int(rel % int32(s.NumPhones))
		rel /= int32(s.NumPhones)
	}
	return gram
}
