package lattice

import (
	"container/heap"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

func twoSlotSausage() *Lattice {
	return FromSausage([]SausageSlot{
		{{Phone: 1, Prob: 0.7}, {Phone: 2, Prob: 0.3}},
		{{Phone: 3, Prob: 0.6}, {Phone: 4, Prob: 0.4}},
	})
}

func TestNBestOrderAndScores(t *testing.T) {
	l := twoSlotSausage()
	paths := l.NBest(4)
	if len(paths) != 4 {
		t.Fatalf("%d paths", len(paths))
	}
	// Best path must match BestPath and scores must be descending.
	best, bestScore := l.BestPath()
	if len(paths[0].Phones) != len(best) {
		t.Fatal("top path mismatch")
	}
	for i := range best {
		if paths[0].Phones[i] != best[i] {
			t.Fatal("top path differs from Viterbi")
		}
	}
	if math.Abs(paths[0].LogScore-bestScore) > 1e-12 {
		t.Fatalf("top score %v vs BestPath %v", paths[0].LogScore, bestScore)
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].LogScore > paths[i-1].LogScore+1e-12 {
			t.Fatal("N-best not in descending order")
		}
	}
	// Probabilities of the four paths sum to 1.
	var total float64
	for _, p := range paths {
		total += math.Exp(p.LogScore)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("path probabilities sum to %v", total)
	}
}

func TestNBestRequestMoreThanExists(t *testing.T) {
	l := FromString([]int{1, 2, 3})
	paths := l.NBest(10)
	if len(paths) != 1 {
		t.Fatalf("%d paths from single-path lattice", len(paths))
	}
	if l.NBest(0) != nil {
		t.Fatal("NBest(0) should be nil")
	}
}

func TestNBestDeduplicates(t *testing.T) {
	// Two distinct alignments producing the same phone string: phone 5
	// via node 1 or node 2.
	l := New(4)
	l.AddEdge(0, 1, 5, math.Log(0.5))
	l.AddEdge(0, 2, 5, math.Log(0.5))
	l.AddEdge(1, 3, 6, 0)
	l.AddEdge(2, 3, 6, 0)
	paths := l.NBest(5)
	if len(paths) != 1 {
		t.Fatalf("duplicate phone strings not merged: %d paths", len(paths))
	}
}

func TestPruneKeepsBestPath(t *testing.T) {
	l := twoSlotSausage()
	pruned := l.Prune(0.99) // threshold above every posterior
	if err := pruned.Validate(); err != nil {
		t.Fatal(err)
	}
	best, _ := pruned.BestPath()
	origBest, _ := l.BestPath()
	for i := range origBest {
		if best[i] != origBest[i] {
			t.Fatal("pruning lost the Viterbi path")
		}
	}
	if pruned.NumEdges() != 2 {
		t.Fatalf("expected only the best path, got %d edges", pruned.NumEdges())
	}
}

func TestPruneThresholdZeroKeepsAll(t *testing.T) {
	l := twoSlotSausage()
	pruned := l.Prune(0)
	if pruned.NumEdges() != l.NumEdges() {
		t.Fatalf("lossless prune dropped edges: %d vs %d", pruned.NumEdges(), l.NumEdges())
	}
}

func TestPrunePosteriorMass(t *testing.T) {
	// Pruning at 0.35 drops only the 0.3 edge.
	l := twoSlotSausage()
	pruned := l.Prune(0.35)
	if pruned.NumEdges() != 3 {
		t.Fatalf("%d edges after pruning", pruned.NumEdges())
	}
	if err := pruned.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOracleErrorRatePerfect(t *testing.T) {
	l := twoSlotSausage()
	// Reference 2,4 is in the lattice (the lowest-probability path).
	if per := l.OracleErrorRate([]int{2, 4}); per != 0 {
		t.Fatalf("oracle PER %v for in-lattice reference", per)
	}
}

func TestOracleErrorRateSubstitution(t *testing.T) {
	l := FromString([]int{1, 2, 3})
	if per := l.OracleErrorRate([]int{1, 9, 3}); math.Abs(per-1.0/3) > 1e-12 {
		t.Fatalf("oracle PER %v, want 1/3", per)
	}
}

func TestOracleErrorRateInsertionsAndDeletions(t *testing.T) {
	l := FromString([]int{1, 2})
	// Reference longer: one deletion needed.
	if per := l.OracleErrorRate([]int{1, 7, 2}); math.Abs(per-1.0/3) > 1e-12 {
		t.Fatalf("PER %v", per)
	}
	// Reference shorter: one insertion needed.
	if per := l.OracleErrorRate([]int{1}); math.Abs(per-1.0) > 1e-12 {
		t.Fatalf("PER %v", per)
	}
}

func TestOracleBelowOneBest(t *testing.T) {
	// A lattice whose 1-best is wrong but which contains the truth: the
	// oracle must beat the 1-best.
	l := FromSausage([]SausageSlot{
		{{Phone: 9, Prob: 0.6}, {Phone: 1, Prob: 0.4}},
		{{Phone: 2, Prob: 1.0}},
	})
	ref := []int{1, 2}
	best, _ := l.BestPath()
	oneBestErrors := 0
	for i := range ref {
		if best[i] != ref[i] {
			oneBestErrors++
		}
	}
	if oneBestErrors == 0 {
		t.Fatal("test setup wrong: 1-best should be wrong")
	}
	if per := l.OracleErrorRate(ref); per != 0 {
		t.Fatalf("oracle PER %v, truth is in the lattice", per)
	}
}

func TestOracleEmptyRef(t *testing.T) {
	l := FromString([]int{1})
	if l.OracleErrorRate(nil) != 0 {
		t.Fatal("empty reference should cost 0")
	}
}

func TestNBestLargeRandomLatticeConsistency(t *testing.T) {
	// On random sausages: NBest scores descend, and the top path always
	// matches Viterbi.
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		slots := make([]SausageSlot, 5+r.Intn(10))
		for i := range slots {
			var slot SausageSlot
			k := 2 + r.Intn(3)
			for j := 0; j < k; j++ {
				slot = append(slot, struct {
					Phone int
					Prob  float64
				}{Phone: r.Intn(20), Prob: r.Float64() + 0.01})
			}
			slots[i] = slot
		}
		l := FromSausage(slots)
		paths := l.NBest(8)
		if len(paths) == 0 {
			t.Fatal("no paths")
		}
		best, bestScore := l.BestPath()
		if math.Abs(paths[0].LogScore-bestScore) > 1e-9 {
			t.Fatalf("trial %d: top score %v vs Viterbi %v", trial, paths[0].LogScore, bestScore)
		}
		_ = best
		for i := 1; i < len(paths); i++ {
			if paths[i].LogScore > paths[i-1].LogScore+1e-9 {
				t.Fatalf("trial %d: scores not descending", trial)
			}
		}
	}
}

// Linked by no binary: N-best search and pruning stay here only as long
// as the tests that check them.

// Path is one complete hypothesis through the lattice.
type Path struct {
	Phones   []int
	LogScore float64
}

// bestExitScores computes, per node, the best (max) log score of any
// suffix path from that node to the end node — the admissible A*
// heuristic for N-best search.
func (l *Lattice) bestExitScores() []float64 {
	h := make([]float64, l.NumNodes)
	for i := range h {
		h[i] = math.Inf(-1)
	}
	h[l.NumNodes-1] = 0
	for n := l.NumNodes - 1; n >= 0; n-- {
		for _, ei := range l.out[n] {
			e := &l.Edges[ei]
			if v := e.LogScore + h[e.To]; v > h[n] {
				h[n] = v
			}
		}
	}
	return h
}

// partial is a search node in the N-best A* expansion.
type partial struct {
	node     int
	logAcc   float64
	priority float64 // logAcc + heuristic(node)
	phones   []int
}

type partialHeap []*partial

func (h partialHeap) Len() int            { return len(h) }
func (h partialHeap) Less(i, j int) bool  { return h[i].priority > h[j].priority }
func (h partialHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *partialHeap) Push(x interface{}) { *h = append(*h, x.(*partial)) }
func (h *partialHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NBest returns up to n complete paths in descending score order using A*
// search with the exact suffix heuristic (so paths pop in score order and
// the first is the Viterbi path). Duplicate phone strings arising from
// distinct alignments are deduplicated.
func (l *Lattice) NBest(n int) []Path {
	if n <= 0 {
		return nil
	}
	hScores := l.bestExitScores()
	if math.IsInf(hScores[0], -1) {
		return nil
	}
	pq := &partialHeap{{node: 0, logAcc: 0, priority: hScores[0]}}
	var out []Path
	seen := make(map[string]bool)
	// Guard against exponential blowup on dense lattices.
	maxPops := 200 * n
	for pq.Len() > 0 && len(out) < n && maxPops > 0 {
		maxPops--
		p := heap.Pop(pq).(*partial)
		if p.node == l.NumNodes-1 {
			key := phoneKey(p.phones)
			if !seen[key] {
				seen[key] = true
				out = append(out, Path{Phones: p.phones, LogScore: p.logAcc})
			}
			continue
		}
		for _, ei := range l.out[p.node] {
			e := &l.Edges[ei]
			if math.IsInf(hScores[e.To], -1) {
				continue
			}
			acc := p.logAcc + e.LogScore
			phones := make([]int, len(p.phones)+1)
			copy(phones, p.phones)
			phones[len(p.phones)] = e.Phone
			heap.Push(pq, &partial{
				node:     e.To,
				logAcc:   acc,
				priority: acc + hScores[e.To],
				phones:   phones,
			})
		}
	}
	return out
}

func phoneKey(phones []int) string {
	b := make([]byte, 0, len(phones)*2)
	for _, p := range phones {
		b = append(b, byte(p), byte(p>>8))
	}
	return string(b)
}

// Prune returns a new lattice containing only edges whose posterior is at
// least minPosterior, plus the Viterbi-path edges (so the result is always
// connected). Nodes are renumbered compactly in topological order.
func (l *Lattice) Prune(minPosterior float64) *Lattice {
	post := l.EdgePosteriors()
	keep := make([]bool, len(l.Edges))
	for i, p := range post {
		if p >= minPosterior {
			keep[i] = true
		}
	}
	// Always keep the best path.
	for _, ei := range l.bestPathEdges() {
		keep[ei] = true
	}
	// Collect used nodes in order.
	usedNodes := make(map[int]bool)
	for i, k := range keep {
		if k {
			usedNodes[l.Edges[i].From] = true
			usedNodes[l.Edges[i].To] = true
		}
	}
	nodes := make([]int, 0, len(usedNodes))
	for n := range usedNodes {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	renum := make(map[int]int, len(nodes))
	for i, n := range nodes {
		renum[n] = i
	}
	out := New(len(nodes))
	for i, k := range keep {
		if !k {
			continue
		}
		e := l.Edges[i]
		out.AddEdge(renum[e.From], renum[e.To], e.Phone, e.LogScore)
	}
	return out
}

// bestPathEdges returns the edge indices of the Viterbi path.
func (l *Lattice) bestPathEdges() []int32 {
	negInf := math.Inf(-1)
	best := make([]float64, l.NumNodes)
	from := make([]int32, l.NumNodes)
	for i := range best {
		best[i] = negInf
		from[i] = -1
	}
	best[0] = 0
	for n := 0; n < l.NumNodes; n++ {
		if math.IsInf(best[n], -1) {
			continue
		}
		for _, ei := range l.out[n] {
			e := &l.Edges[ei]
			if v := best[n] + e.LogScore; v > best[e.To] {
				best[e.To] = v
				from[e.To] = ei
			}
		}
	}
	var edges []int32
	for n := l.NumNodes - 1; n != 0; {
		ei := from[n]
		if ei < 0 {
			return nil
		}
		edges = append(edges, ei)
		n = l.Edges[ei].From
	}
	return edges
}
