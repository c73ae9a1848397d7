// Package lattice implements phone lattices and the expected N-gram
// counting of the paper's Section 2.2: given a lattice ℓ produced by a
// phone recognizer, the expected count of an N-gram h_i…h_{i+N−1} is the
// posterior-weighted sum over all length-N edge paths,
//
//	c_E(h_i,…,h_{i+N−1}|ℓ) = Σ_paths α(e_i)·Π_j w(e_j)·β(e_{i+N−1}) / P(ℓ),
//
// where α and β are forward/backward scores at the path's end nodes, w(e)
// the edge weight, and P(ℓ) the total lattice likelihood (the paper's
// Eq. 2 normalizes these into N-gram probabilities).
//
// Nodes are topologically ordered by construction: every edge must go from
// a lower-numbered node to a higher-numbered one; node 0 is the unique
// start and node NumNodes−1 the unique end. This matches the output of
// both the simulated decoders and the confusion-network generator of the
// acoustic path (a "sausage" is a linear lattice with parallel edges).
package lattice

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/faultinject"
)

// Edge is a scored phone arc.
type Edge struct {
	From, To int
	Phone    int
	// LogScore is the combined acoustic+LM log weight of the edge.
	LogScore float64
}

// Lattice is a DAG of phone edges over topologically ordered nodes.
type Lattice struct {
	NumNodes int
	Edges    []Edge
	// out[n] lists indices into Edges leaving node n.
	out [][]int32
	// in[n] lists indices into Edges entering node n.
	in [][]int32
}

// New returns an empty lattice with numNodes nodes.
func New(numNodes int) *Lattice {
	if numNodes < 2 {
		panic("lattice: need at least start and end nodes")
	}
	return &Lattice{
		NumNodes: numNodes,
		out:      make([][]int32, numNodes),
		in:       make([][]int32, numNodes),
	}
}

// AddEdge appends an edge; from must be < to (topological order).
func (l *Lattice) AddEdge(from, to, phone int, logScore float64) {
	if from < 0 || to >= l.NumNodes || from >= to {
		panic(fmt.Sprintf("lattice: bad edge %d→%d with %d nodes", from, to, l.NumNodes))
	}
	idx := int32(len(l.Edges))
	l.Edges = append(l.Edges, Edge{From: from, To: to, Phone: phone, LogScore: logScore})
	l.out[from] = append(l.out[from], idx)
	l.in[to] = append(l.in[to], idx)
}

// NumEdges returns the edge count.
func (l *Lattice) NumEdges() int { return len(l.Edges) }

// Validate checks connectivity invariants: every node except the start has
// incoming edges, every node except the end has outgoing edges.
func (l *Lattice) Validate() error {
	if len(l.Edges) == 0 {
		return fmt.Errorf("lattice: no edges")
	}
	for n := 0; n < l.NumNodes; n++ {
		if n != 0 && len(l.in[n]) == 0 {
			return fmt.Errorf("lattice: node %d unreachable", n)
		}
		if n != l.NumNodes-1 && len(l.out[n]) == 0 {
			return fmt.Errorf("lattice: node %d is a dead end", n)
		}
	}
	return nil
}

// logAdd returns log(exp(a)+exp(b)) stably.
func logAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// ForwardBackward computes log forward scores α (by node), log backward
// scores β (by node), and the total log likelihood log P(ℓ).
func (l *Lattice) ForwardBackward() (alpha, beta []float64, logTotal float64) {
	alpha = make([]float64, l.NumNodes)
	beta = make([]float64, l.NumNodes)
	logTotal = l.forwardBackwardInto(alpha, beta)
	return alpha, beta, logTotal
}

// forwardBackwardInto runs forward–backward into caller-provided slices
// (each of length NumNodes). Every element is fully (re)initialized, so
// recycled scratch produces the same bits as fresh allocations.
func (l *Lattice) forwardBackwardInto(alpha, beta []float64) (logTotal float64) {
	negInf := math.Inf(-1)
	for i := range alpha {
		alpha[i] = negInf
		beta[i] = negInf
	}
	alpha[0] = 0
	for n := 0; n < l.NumNodes; n++ {
		if math.IsInf(alpha[n], -1) {
			continue
		}
		for _, ei := range l.out[n] {
			e := &l.Edges[ei]
			alpha[e.To] = logAdd(alpha[e.To], alpha[n]+e.LogScore)
		}
	}
	beta[l.NumNodes-1] = 0
	for n := l.NumNodes - 1; n >= 0; n-- {
		if math.IsInf(beta[n], -1) {
			continue
		}
		for _, ei := range l.in[n] {
			e := &l.Edges[ei]
			beta[e.From] = logAdd(beta[e.From], e.LogScore+beta[n])
		}
	}
	return alpha[l.NumNodes-1]
}

// ExpectedNgramCounts walks all consecutive-edge paths of length n and
// reports each N-gram's expected count through emit. Unigram (n=1) counts
// are the edge posteriors; higher orders follow the path formula in the
// package comment. The emit callback receives the phone tuple (valid only
// during the call) and the path's posterior weight.
func (l *Lattice) ExpectedNgramCounts(n int, emit func(ngram []int, weight float64)) {
	if n < 1 {
		panic("lattice: n-gram order must be >= 1")
	}
	alpha, beta, logTotal := l.ForwardBackward()
	if math.IsInf(logTotal, -1) {
		return
	}
	l.countOrder(n, make([]int, n), alpha, beta, logTotal, emit)
}

// countOrder walks all consecutive-edge paths of length n given the
// precomputed forward/backward scores, filling the caller's gram scratch.
func (l *Lattice) countOrder(n int, gram []int, alpha, beta []float64, logTotal float64,
	emit func(ngram []int, weight float64)) {

	var walk func(depth int, node int, logAcc float64)
	walk = func(depth int, node int, logAcc float64) {
		if depth == n {
			emit(gram, math.Exp(logAcc+beta[node]-logTotal))
			return
		}
		for _, ei := range l.out[node] {
			e := &l.Edges[ei]
			gram[depth] = e.Phone
			walk(depth+1, e.To, logAcc+e.LogScore)
		}
	}
	for start := 0; start < l.NumNodes; start++ {
		if math.IsInf(alpha[start], -1) || len(l.out[start]) == 0 {
			continue
		}
		walk(0, start, alpha[start])
	}
}

// ExpectedNgramCountsAll emits the expected counts of every order
// 1..maxN from a single forward–backward pass — the supervector
// extraction hot path, which would otherwise recompute α/β once per
// order. Orders are emitted in ascending sequence, and within an order
// the walk visits paths in exactly the order ExpectedNgramCounts does,
// so any per-index or per-order accumulation over this stream is
// bit-identical to per-order calls. One gram scratch slice of length
// maxN is reused across all orders and callbacks (the tuple passed to
// emit is valid only during the call).
func (l *Lattice) ExpectedNgramCountsAll(maxN int, emit func(order int, ngram []int, weight float64)) {
	if maxN < 1 {
		panic("lattice: n-gram order must be >= 1")
	}
	fb := fbPool.Get().(*fbScratch)
	defer fbPool.Put(fb)
	alpha, beta := fb.grow(l.NumNodes)
	logTotal := l.forwardBackwardInto(alpha, beta)
	if math.IsInf(logTotal, -1) {
		return
	}
	gram := make([]int, maxN)
	for n := 1; n <= maxN; n++ {
		order := n
		l.countOrder(n, gram[:n], alpha, beta, logTotal, func(g []int, w float64) {
			emit(order, g, w)
		})
	}
}

// fbScratch holds pooled α/β slices for the extraction hot path, where
// forward–backward scratch would otherwise be reallocated per lattice.
type fbScratch struct{ alpha, beta []float64 }

func (fb *fbScratch) grow(n int) (alpha, beta []float64) {
	if cap(fb.alpha) < n {
		fb.alpha = make([]float64, n)
		fb.beta = make([]float64, n)
	}
	return fb.alpha[:n], fb.beta[:n]
}

var fbPool = sync.Pool{New: func() any { return new(fbScratch) }}

// BestPath returns the Viterbi (max-score) phone sequence through the
// lattice and its log score.
func (l *Lattice) BestPath() ([]int, float64) {
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
	end := l.NumNodes - 1
	if math.IsInf(best[end], -1) {
		return nil, negInf
	}
	var rev []int
	for n := end; n != 0; {
		e := &l.Edges[from[n]]
		rev = append(rev, e.Phone)
		n = e.From
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, best[end]
}

// SausageSlot is one confusion-set slot: parallel phone hypotheses with
// probabilities (need not be normalized; the lattice normalizes globally).
type SausageSlot []struct {
	Phone int
	Prob  float64
}

// FromSausage builds a linear confusion-network lattice: slot i spans
// nodes i→i+1 with one edge per alternative, weighted by log probability.
// Zero-probability alternatives are dropped. It runs ParseSausage's
// checks with no phone inventory and no chaos site, and panics where
// ParseSausage returns an error (a slot with no positive alternative
// would disconnect the lattice). Trusted-input paths (the decoders) use
// this; untrusted input goes through ParseSausage.
func FromSausage(slots []SausageSlot) *Lattice {
	l, err := parseSausage(slots, 0)
	if err != nil {
		panic(err)
	}
	return l
}

// ParseSausage is the error-returning sausage builder for untrusted input
// (the serving API, fuzzers): malformed slots — NaN/Inf/negative
// probabilities, no positive alternative, out-of-range phones when
// numPhones > 0 — return an error instead of panicking. A valid sausage
// produces exactly the lattice FromSausage would.
func ParseSausage(slots []SausageSlot, numPhones int) (*Lattice, error) {
	// Chaos hook: an injected fault behaves like a malformed decode.
	if err := faultinject.At("lattice.sausage"); err != nil {
		return nil, err
	}
	return parseSausage(slots, numPhones)
}

// parseSausage checks slots (phones against numPhones when it is > 0)
// and counts the kept alternatives, then builds the lattice.
func parseSausage(slots []SausageSlot, numPhones int) (*Lattice, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("lattice: empty sausage")
	}
	numEdges := 0
	for i, slot := range slots {
		added := 0
		for _, alt := range slot {
			if math.IsNaN(alt.Prob) || math.IsInf(alt.Prob, 0) || alt.Prob < 0 {
				return nil, fmt.Errorf("lattice: slot %d: invalid probability %v", i, alt.Prob)
			}
			if numPhones > 0 && (alt.Phone < 0 || alt.Phone >= numPhones) {
				return nil, fmt.Errorf("lattice: slot %d: phone %d outside inventory [0,%d)", i, alt.Phone, numPhones)
			}
			if alt.Prob == 0 {
				continue
			}
			added++
		}
		if added == 0 {
			return nil, fmt.Errorf("lattice: slot %d has no positive-probability alternative", i)
		}
		numEdges += added
	}
	return buildSausage(slots, numEdges), nil
}

// buildSausage lays out a checked sausage with numEdges kept alternatives:
// those with a positive probability.
// Edges is sized exactly, and every slot's edge indices form one run of a
// single int32 arena that serves as both node i's out list and node i+1's
// in list: in a sausage they are the same edges. Each run is a 3-index
// slice capped at its length, so a later AddEdge copies it instead of
// writing into the next slot's run.
func buildSausage(slots []SausageSlot, numEdges int) *Lattice {
	l := &Lattice{
		NumNodes: len(slots) + 1,
		Edges:    make([]Edge, 0, numEdges),
		out:      make([][]int32, len(slots)+1),
		in:       make([][]int32, len(slots)+1),
	}
	arena := make([]int32, numEdges)
	for i, slot := range slots {
		first := len(l.Edges)
		for _, alt := range slot {
			if alt.Prob <= 0 {
				continue
			}
			arena[len(l.Edges)] = int32(len(l.Edges))
			l.Edges = append(l.Edges, Edge{From: i, To: i + 1, Phone: alt.Phone, LogScore: math.Log(alt.Prob)})
		}
		run := arena[first:len(l.Edges):len(l.Edges)]
		l.out[i], l.in[i+1] = run, run
	}
	return l
}

// FromString builds the degenerate single-path lattice of a 1-best phone
// sequence.
func FromString(phoneSeq []int) *Lattice {
	if len(phoneSeq) == 0 {
		panic("lattice: empty phone string")
	}
	l := New(len(phoneSeq) + 1)
	for i, p := range phoneSeq {
		l.AddEdge(i, i+1, p, 0)
	}
	return l
}
