package sparse

import "math/bits"

// accumulator.go is the expected-count accumulation hot path. Expected
// N-gram counting touches every (index, weight) observation of every
// utterance × every order, so the accumulator's constant factors dominate
// supervector extraction. The index space is known up front (an n-gram
// space's dimension), so the accumulator is a dense array indexed directly
// by supervector index plus a bitmap of touched indices: no hashing, no
// probing, and no sort — the bitmap scan emits indices in ascending order.

// Accumulator builds a sparse vector incrementally from (index, weight)
// observations over the index range [0, dim) without requiring sorted
// insertion. Indices outside the range panic. Vector empties it again, so
// one instance is reused across utterances and orders (callers pool them
// per index space).
type Accumulator struct {
	// vals[i] is live only while bit i of touched is set; the first Add
	// to an index overwrites whatever a previous use left there.
	vals    []float64
	touched []uint64
	// n counts the touched indices, sizing Vector's output exactly.
	n int
}

// NewAccumulator returns an empty accumulator over indices [0, dim).
func NewAccumulator(dim int) *Accumulator {
	return &Accumulator{
		vals:    make([]float64, dim),
		touched: make([]uint64, (dim+63)/64),
	}
}

// Add accumulates weight w at index i. The first Add to an index sets its
// value and later ones add to it, so each index's sum is the same float
// chain a map's m[i] += w would build.
func (a *Accumulator) Add(i int32, w float64) {
	word, bit := i>>6, uint64(1)<<(i&63)
	if a.touched[word]&bit != 0 {
		a.vals[i] += w
		return
	}
	a.vals[i] = w
	a.touched[word] |= bit
	a.n++
}

// Vector materializes the accumulated contents as a sorted sparse vector,
// dropping exact zeros (matching FromMap semantics), and leaves the
// accumulator empty: the bitmap is scanned in ascending order and cleared
// as it goes.
func (a *Accumulator) Vector() *Vector {
	v := New(a.n)
	for w, word := range a.touched {
		if word == 0 {
			continue
		}
		a.touched[w] = 0
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if x := a.vals[i]; x != 0 {
				v.Idx = append(v.Idx, int32(i))
				v.Val = append(v.Val, x)
			}
		}
	}
	a.n = 0
	return v
}
