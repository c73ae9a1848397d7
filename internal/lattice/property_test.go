package lattice

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomSausage builds a random confusion network.
func randomSausage(r *rng.RNG, maxSlots, maxAlts, numPhones int) *Lattice {
	slots := make([]SausageSlot, r.Intn(maxSlots)+1)
	for i := range slots {
		var slot SausageSlot
		k := r.Intn(maxAlts) + 1
		for j := 0; j < k; j++ {
			slot = append(slot, struct {
				Phone int
				Prob  float64
			}{Phone: r.Intn(numPhones), Prob: r.Float64() + 0.01})
		}
		slots[i] = slot
	}
	return FromSausage(slots)
}

func TestPropertyUnigramMassEqualsSlots(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		l := randomSausage(rr, 12, 4, 10)
		var total float64
		l.ExpectedNgramCounts(1, func(_ []int, w float64) { total += w })
		return math.Abs(total-float64(l.NumNodes-1)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBigramMassEqualsInteriorSlots(t *testing.T) {
	// Total expected bigram mass in a sausage = #slots − 1 (one bigram
	// crossing per interior boundary, summed over the distribution).
	r := rng.New(2)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		l := randomSausage(rr, 12, 4, 10)
		slots := l.NumNodes - 1
		if slots < 2 {
			return true
		}
		var total float64
		l.ExpectedNgramCounts(2, func(_ []int, w float64) { total += w })
		return math.Abs(total-float64(slots-1)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertySlotPosteriorsNormalized(t *testing.T) {
	r := rng.New(3)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		l := randomSausage(rr, 10, 5, 8)
		post := l.EdgePosteriors()
		bySlot := map[int]float64{}
		for i, e := range l.Edges {
			bySlot[e.From] += post[i]
		}
		for _, s := range bySlot {
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOracleNeverWorseThanOneBest(t *testing.T) {
	r := rng.New(5)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		l := randomSausage(rr, 10, 4, 6)
		// Random reference of similar length.
		ref := make([]int, l.NumNodes-1)
		for i := range ref {
			ref[i] = rr.Intn(6)
		}
		best, _ := l.BestPath()
		// 1-best PER via alignment-free bound: count positional mismatches
		// is an upper bound on edit distance only for equal lengths, which
		// holds in a sausage.
		errs := 0
		for i := range ref {
			if best[i] != ref[i] {
				errs++
			}
		}
		oracle := l.OracleErrorRate(ref)
		return oracle <= float64(errs)/float64(len(ref))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBestPathMatchesBruteForce enumerates every path of small random
// sausages (repeated phones within a slot included): BestPath's score is
// the best path's score, bit for bit, since both add edge scores from
// the start node in path order, and its phones are those of a path
// scoring exactly that.
func TestBestPathMatchesBruteForce(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		l := randomSausage(r, 6, 4, 5)
		type path struct {
			phones []int
			score  float64
		}
		var paths []path
		var walk func(n int, phones []int, acc float64)
		walk = func(n int, phones []int, acc float64) {
			if n == l.NumNodes-1 {
				paths = append(paths, path{append([]int(nil), phones...), acc})
				return
			}
			for _, ei := range l.out[n] {
				e := &l.Edges[ei]
				walk(e.To, append(phones, e.Phone), acc+e.LogScore)
			}
		}
		walk(0, nil, 0)
		best := math.Inf(-1)
		for _, p := range paths {
			best = math.Max(best, p.score)
		}
		phones, score := l.BestPath()
		if score != best {
			t.Fatalf("trial %d: BestPath scores %v, the best of %d paths %v", trial, score, len(paths), best)
		}
		if !slices.ContainsFunc(paths, func(p path) bool { return p.score == score && slices.Equal(p.phones, phones) }) {
			t.Fatalf("trial %d: BestPath phones %v are no path scoring %v", trial, phones, score)
		}
	}
}
