package lattice

import (
	"math"
	"testing"
)

func TestFromStringBestPath(t *testing.T) {
	l := FromString([]int{4, 2, 7})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	path, score := l.BestPath()
	if len(path) != 3 || path[0] != 4 || path[1] != 2 || path[2] != 7 {
		t.Fatalf("path = %v", path)
	}
	if score != 0 {
		t.Fatalf("score = %v", score)
	}
}

func TestForwardBackwardSinglePath(t *testing.T) {
	l := FromString([]int{1, 2})
	alpha, beta, total := l.ForwardBackward()
	if total != 0 {
		t.Fatalf("logTotal = %v", total)
	}
	if alpha[0] != 0 || beta[l.NumNodes-1] != 0 {
		t.Fatal("boundary conditions wrong")
	}
	// α(end) = total; β(start) = total.
	if alpha[l.NumNodes-1] != total || beta[0] != total {
		t.Fatal("alpha/beta inconsistent")
	}
}

func TestEdgePosteriorsDiamond(t *testing.T) {
	// Two parallel paths: phone 1 with weight 0.75, phone 2 with 0.25.
	l := New(2)
	l.AddEdge(0, 1, 1, math.Log(0.75))
	l.AddEdge(0, 1, 2, math.Log(0.25))
	post := l.EdgePosteriors()
	if math.Abs(post[0]-0.75) > 1e-12 || math.Abs(post[1]-0.25) > 1e-12 {
		t.Fatalf("posteriors = %v", post)
	}
}

func TestEdgePosteriorsSumPerSlice(t *testing.T) {
	// In a sausage, posteriors of each slot's parallel edges sum to 1.
	slots := []SausageSlot{
		{{Phone: 1, Prob: 0.6}, {Phone: 2, Prob: 0.4}},
		{{Phone: 3, Prob: 0.5}, {Phone: 4, Prob: 0.3}, {Phone: 5, Prob: 0.2}},
		{{Phone: 6, Prob: 1.0}},
	}
	l := FromSausage(slots)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	post := l.EdgePosteriors()
	bySlot := map[int]float64{}
	for i, e := range l.Edges {
		bySlot[e.From] += post[i]
	}
	for slot, sum := range bySlot {
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("slot %d posteriors sum to %v", slot, sum)
		}
	}
}

func TestUnigramCountsEqualEdgePosteriors(t *testing.T) {
	slots := []SausageSlot{
		{{Phone: 0, Prob: 0.7}, {Phone: 1, Prob: 0.3}},
		{{Phone: 0, Prob: 0.2}, {Phone: 2, Prob: 0.8}},
	}
	l := FromSausage(slots)
	counts := map[int]float64{}
	l.ExpectedNgramCounts(1, func(ng []int, w float64) {
		counts[ng[0]] += w
	})
	if math.Abs(counts[0]-0.9) > 1e-9 {
		t.Fatalf("count(0) = %v, want 0.9", counts[0])
	}
	if math.Abs(counts[1]-0.3) > 1e-9 || math.Abs(counts[2]-0.8) > 1e-9 {
		t.Fatalf("counts = %v", counts)
	}
	// Total unigram mass = number of slots.
	var total float64
	for _, v := range counts {
		total += v
	}
	if math.Abs(total-2) > 1e-9 {
		t.Fatalf("total unigram mass = %v", total)
	}
}

func TestBigramCountsSausageFactorize(t *testing.T) {
	// In a sausage, bigram expected counts factor into slot posteriors.
	slots := []SausageSlot{
		{{Phone: 1, Prob: 0.6}, {Phone: 2, Prob: 0.4}},
		{{Phone: 3, Prob: 0.9}, {Phone: 4, Prob: 0.1}},
	}
	l := FromSausage(slots)
	counts := map[[2]int]float64{}
	l.ExpectedNgramCounts(2, func(ng []int, w float64) {
		counts[[2]int{ng[0], ng[1]}] += w
	})
	want := map[[2]int]float64{
		{1, 3}: 0.54, {1, 4}: 0.06, {2, 3}: 0.36, {2, 4}: 0.04,
	}
	for k, v := range want {
		if math.Abs(counts[k]-v) > 1e-9 {
			t.Fatalf("count%v = %v, want %v", k, counts[k], v)
		}
	}
}

func TestTrigramCounts(t *testing.T) {
	l := FromString([]int{5, 6, 7, 8})
	counts := map[[3]int]float64{}
	l.ExpectedNgramCounts(3, func(ng []int, w float64) {
		counts[[3]int{ng[0], ng[1], ng[2]}] += w
	})
	if len(counts) != 2 {
		t.Fatalf("trigram count entries = %d", len(counts))
	}
	if math.Abs(counts[[3]int{5, 6, 7}]-1) > 1e-12 || math.Abs(counts[[3]int{6, 7, 8}]-1) > 1e-12 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestNonSausageLattice(t *testing.T) {
	// Branching lattice with unequal path lengths:
	//   0 →(a)→ 1 →(b)→ 3
	//   0 →(c)→ 2 →(d)→ 3, and 0→(e)→3 direct.
	l := New(4)
	l.AddEdge(0, 1, 10, math.Log(0.5))
	l.AddEdge(1, 3, 11, math.Log(1.0))
	l.AddEdge(0, 2, 12, math.Log(0.3))
	l.AddEdge(2, 3, 13, math.Log(1.0))
	l.AddEdge(0, 3, 14, math.Log(0.2))
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	_, _, total := l.ForwardBackward()
	if math.Abs(math.Exp(total)-1.0) > 1e-9 {
		t.Fatalf("total mass = %v", math.Exp(total))
	}
	post := l.EdgePosteriors()
	// Edge 0 (phone 10) lies on the 0.5 path.
	if math.Abs(post[0]-0.5) > 1e-9 || math.Abs(post[4]-0.2) > 1e-9 {
		t.Fatalf("posteriors = %v", post)
	}
	// Bigram counts exist only along 2-edge paths.
	counts := map[[2]int]float64{}
	l.ExpectedNgramCounts(2, func(ng []int, w float64) {
		counts[[2]int{ng[0], ng[1]}] += w
	})
	if math.Abs(counts[[2]int{10, 11}]-0.5) > 1e-9 {
		t.Fatalf("count(10,11) = %v", counts[[2]int{10, 11}])
	}
	if math.Abs(counts[[2]int{12, 13}]-0.3) > 1e-9 {
		t.Fatalf("count(12,13) = %v", counts[[2]int{12, 13}])
	}
	if len(counts) != 2 {
		t.Fatalf("unexpected bigrams: %v", counts)
	}
}

func TestBestPathPrefersHighWeight(t *testing.T) {
	l := New(3)
	l.AddEdge(0, 1, 1, math.Log(0.9))
	l.AddEdge(0, 1, 2, math.Log(0.1))
	l.AddEdge(1, 2, 3, math.Log(0.5))
	path, _ := l.BestPath()
	if len(path) != 2 || path[0] != 1 || path[1] != 3 {
		t.Fatalf("best path = %v", path)
	}
}

func TestValidateCatchesDeadEnds(t *testing.T) {
	l := New(3)
	l.AddEdge(0, 2, 1, 0)
	// Node 1 unreachable and dead-end.
	if l.Validate() == nil {
		t.Fatal("Validate accepted disconnected node")
	}
}

func TestAddEdgePanicsOnBackwardEdge(t *testing.T) {
	l := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge accepted backward edge")
		}
	}()
	l.AddEdge(2, 1, 0, 0)
}

func TestFromSausagePanicsOnEmptySlot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSausage accepted an all-zero slot")
		}
	}()
	FromSausage([]SausageSlot{{{Phone: 1, Prob: 0}}})
}

func TestUnnormalizedSausage(t *testing.T) {
	// Slot probabilities that do not sum to 1 still give normalized
	// posteriors after forward-backward.
	slots := []SausageSlot{
		{{Phone: 1, Prob: 3}, {Phone: 2, Prob: 1}},
	}
	l := FromSausage(slots)
	post := l.EdgePosteriors()
	if math.Abs(post[0]-0.75) > 1e-12 {
		t.Fatalf("unnormalized slot posterior = %v", post[0])
	}
}

// No binary links this; the package's tests use it as a referee or
// fixture.

// EdgePosteriors returns ξ(e) = P(e ∈ path) for every edge.
func (l *Lattice) EdgePosteriors() []float64 {
	alpha, beta, logTotal := l.ForwardBackward()
	post := make([]float64, len(l.Edges))
	for i := range l.Edges {
		e := &l.Edges[i]
		post[i] = math.Exp(alpha[e.From] + e.LogScore + beta[e.To] - logTotal)
	}
	return post
}
