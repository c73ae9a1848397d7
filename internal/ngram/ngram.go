// Package ngram turns lattice expected counts into phonotactic feature
// supervectors (paper Eq. 3) and implements the TFLLR kernel scaling
// (Eq. 5).
//
// A supervector over a front-end with f phones and maximum order N stacks
// the normalized expected counts of every n-gram for n = 1…N, giving
// dimension F = f + f² + … + f^N. The paper's VSM normalizes counts within
// each order (Eq. 2), so each order's block sums to one when any mass is
// present. TFLLR scales component q by 1/√p(d_q|ℓ_all), where p(d_q|ℓ_all)
// is the background probability of the n-gram across all training
// lattices; with that scaling a plain inner product equals the TFLLR
// kernel, which is how the linear SVM consumes it.
package ngram

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sync"

	"repro/internal/gobwire"
	"repro/internal/lattice"
	"repro/internal/sparse"
)

// Space indexes all n-grams of order 1..Order over a phone inventory.
type Space struct {
	NumPhones int
	Order     int
	// offsets[n-1] is the first index of order-n grams.
	offsets []int32
	dim     int32
	// accs recycles dense accumulators of this space's dimension across
	// utterances; one pool per space keeps spaces of different
	// dimensions from trading each other's buffers.
	accs sync.Pool
}

// NewSpace builds an n-gram index space. Order must be ≥ 1; dimension
// f + f² + … + f^Order must fit in int32.
func NewSpace(numPhones, order int) *Space {
	if numPhones <= 0 || order < 1 {
		panic("ngram: invalid space parameters")
	}
	s := &Space{NumPhones: numPhones, Order: order}
	var off int64
	for n := 1; n <= order; n++ {
		s.offsets = append(s.offsets, int32(off))
		block := int64(1)
		for i := 0; i < n; i++ {
			block *= int64(numPhones)
		}
		off += block
		if off > math.MaxInt32 {
			panic(fmt.Sprintf("ngram: space %d^%d overflows int32", numPhones, order))
		}
	}
	s.dim = int32(off)
	s.accs.New = func() any { return sparse.NewAccumulator(int(s.dim)) }
	return s
}

// Dim returns the total supervector dimension.
func (s *Space) Dim() int { return int(s.dim) }

// Index maps an n-gram (1 ≤ len ≤ Order) to its supervector index.
func (s *Space) Index(gram []int) int32 {
	n := len(gram)
	if n < 1 || n > s.Order {
		panic(fmt.Sprintf("ngram: gram of length %d in order-%d space", n, s.Order))
	}
	idx := int32(0)
	for _, p := range gram {
		if p < 0 || p >= s.NumPhones {
			panic(fmt.Sprintf("ngram: phone %d out of range [0,%d)", p, s.NumPhones))
		}
		idx = idx*int32(s.NumPhones) + int32(p)
	}
	return s.offsets[n-1] + idx
}

// OrderOf returns the n-gram order of a supervector index.
func (s *Space) OrderOf(idx int32) int {
	order := 1
	for order < s.Order && idx >= s.offsets[order] {
		order++
	}
	return order
}

// Supervector computes the stacked, per-order-normalized expected N-gram
// probability vector of a lattice (Eq. 2–3). The result is sparse; an
// utterance only populates the grams its lattice contains.
func (s *Space) Supervector(l *lattice.Lattice) *sparse.Vector {
	// Pooled accumulator + single forward–backward pass shared by all
	// orders: the count stream arrives order by order in the same
	// sequence as per-order ExpectedNgramCounts calls, so the per-index
	// and per-total addition chains (and hence the float results) are
	// bit-identical to the old path. Vector leaves the accumulator empty,
	// so it goes back to the pool only after Vector: a panic mid-count
	// drops it instead of handing a dirty one to the next utterance.
	acc := s.accs.Get().(*sparse.Accumulator)
	// Per-order totals for normalization.
	totals := make([]float64, s.Order)
	l.ExpectedNgramCountsAll(s.Order, func(order int, gram []int, w float64) {
		if w <= 0 {
			return
		}
		acc.Add(s.Index(gram), w)
		totals[order-1] += w
	})
	v := acc.Vector()
	s.accs.Put(acc)
	// Normalize each order block.
	v.Map(func(idx int32, val float64) float64 {
		t := totals[s.OrderOf(idx)-1]
		if t <= 0 {
			return 0
		}
		return val / t
	})
	return v
}

// TFLLR holds the background scaling of Eq. 5. Component q of a
// supervector is divided by √p(d_q|ℓ_all); unseen components use a floor
// probability so test-time grams absent from training do not explode.
type TFLLR struct {
	dim   int
	scale []float64 // multiplicative factor 1/√p_all, by index
}

// EstimateTFLLR accumulates background statistics from training
// supervectors. floorProb bounds the background probability from below
// (the paper's implementations use a small constant; 1e-5 here).
func EstimateTFLLR(vectors []*sparse.Vector, dim int, floorProb float64) *TFLLR {
	if floorProb <= 0 {
		floorProb = 1e-5
	}
	bg := make([]float64, dim)
	var total float64
	for _, v := range vectors {
		for k, idx := range v.Idx {
			if int(idx) < dim {
				bg[idx] += v.Val[k]
				total += v.Val[k]
			}
		}
	}
	t := &TFLLR{dim: dim, scale: make([]float64, dim)}
	for q := range t.scale {
		p := floorProb
		if total > 0 {
			if obs := bg[q] / total; obs > p {
				p = obs
			}
		}
		t.scale[q] = 1 / math.Sqrt(p)
	}
	return t
}

// Apply scales the supervector in place so that plain inner products
// compute the TFLLR kernel.
func (t *TFLLR) Apply(v *sparse.Vector) {
	v.Map(func(idx int32, val float64) float64 {
		if int(idx) >= t.dim {
			return val
		}
		return val * t.scale[idx]
	})
}

// Dim returns the space dimension the scaler was estimated for.
func (t *TFLLR) Dim() int { return t.dim }

// Scale returns the multiplicative factor for index q (exported for
// ablation benches comparing TFLLR against raw counts).
func (t *TFLLR) Scale(q int32) float64 { return t.scale[q] }

// tfllrWire is the gob wire format of TFLLR.
type tfllrWire struct {
	Dim   int
	Scale []float64
}

// GobEncode implements gob.GobEncoder.
func (t *TFLLR) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(tfllrWire{Dim: t.dim, Scale: t.scale})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (t *TFLLR) GobDecode(data []byte) error {
	var w tfllrWire
	if err := gobwire.Unmarshal(data, &w); err != nil {
		return err
	}
	t.dim, t.scale = w.Dim, w.Scale
	return nil
}
