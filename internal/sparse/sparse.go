// Package sparse implements sparse vectors for phonotactic supervectors.
//
// A supervector over an N-gram space of dimension F = fⁿ (f phones, order
// n) is extremely sparse for short utterances — a 3-second utterance emits
// a few dozen distinct bigrams out of thousands of possible ones — so both
// SVM training and scoring operate on sorted (index, value) pairs. Dot
// products between two sparse vectors are linear merges; dot products
// against dense weight vectors are gathers.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Vector is a sparse vector with strictly increasing indices.
type Vector struct {
	Idx []int32
	Val []float64
}

// New returns an empty sparse vector with the given capacity hint.
func New(capacity int) *Vector {
	return &Vector{
		Idx: make([]int32, 0, capacity),
		Val: make([]float64, 0, capacity),
	}
}

// FromMap builds a sorted sparse vector from an index→value map, dropping
// zeros.
func FromMap(m map[int32]float64) *Vector {
	v := New(len(m))
	for i, x := range m {
		if x != 0 {
			v.Idx = append(v.Idx, i)
		}
	}
	// Co-sort by sorting the (distinct) indices alone and gathering the
	// values afterwards — no interface-based pair sort.
	slices.Sort(v.Idx)
	for _, i := range v.Idx {
		v.Val = append(v.Val, m[i])
	}
	return v
}

// FromDense builds a sparse vector from a dense slice, dropping zeros.
func FromDense(d []float64) *Vector {
	v := New(8)
	for i, x := range d {
		if x != 0 {
			v.Idx = append(v.Idx, int32(i))
			v.Val = append(v.Val, x)
		}
	}
	return v
}

// NNZ returns the number of stored (non-zero) entries.
func (v *Vector) NNZ() int { return len(v.Idx) }

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	out := &Vector{
		Idx: make([]int32, len(v.Idx)),
		Val: make([]float64, len(v.Val)),
	}
	copy(out.Idx, v.Idx)
	copy(out.Val, v.Val)
	return out
}

// At returns the value at index i (zero if not stored) by binary search
// over the sorted index slice.
func (v *Vector) At(i int32) float64 {
	if k, ok := slices.BinarySearch(v.Idx, i); ok {
		return v.Val[k]
	}
	return 0
}

// Dot returns the inner product of two sparse vectors via linear merge.
func Dot(a, b *Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			s += a.Val[i] * b.Val[j]
			i++
			j++
		}
	}
	return s
}

// DotDense returns the inner product of v against a dense weight vector w.
// Indices beyond len(w) contribute zero. This is the SVM solver's
// innermost kernel, so it is tuned: indices are compared unsigned
// against len(w) (enforcing the cutoff while proving 0 ≤ j < len(w) to
// the compiler, which drops the per-element bounds checks), and the
// gather is unrolled 4-wide. The accumulator is a single chain updated
// in ascending-index order — the identical float addition sequence as
// the scalar loop — so results are bit-for-bit unchanged. The block
// guard ORs the four indices: it can only over-trigger (OR ≥ each
// operand for non-negative values), and the scalar tail re-checks
// element by element, so the cutoff stays exact. A negative index —
// an invariant violation — wraps to a huge uint and stops the loop;
// the post-loop check then panics so corrupted vectors fail as loudly
// as they did under the pre-optimization w[i] bounds check instead of
// silently truncating the product.
func (v *Vector) DotDense(w []float64) float64 {
	var s float64
	idx := v.Idx
	val := v.Val[:len(idx)]
	lw := uint(len(w))
	k := 0
	for ; k+3 < len(idx); k += 4 {
		j0, j1 := uint(int(idx[k])), uint(int(idx[k+1]))
		j2, j3 := uint(int(idx[k+2])), uint(int(idx[k+3]))
		if j0|j1|j2|j3 >= lw {
			break
		}
		s += val[k] * w[j0]
		s += val[k+1] * w[j1]
		s += val[k+2] * w[j2]
		s += val[k+3] * w[j3]
	}
	for ; k < len(idx); k++ {
		j := uint(int(idx[k]))
		if j >= lw {
			break
		}
		s += val[k] * w[j]
	}
	if k < len(idx) && idx[k] < 0 {
		panic("sparse: DotDense on vector with negative index")
	}
	return s
}

// AxpyDense computes w += alpha·v into the dense vector w, with the
// same unrolled-gather structure (and negative-index panic) as
// DotDense. Stores hit strictly increasing (hence distinct) slots, so
// the unroll cannot reorder two updates to the same element.
func (v *Vector) AxpyDense(alpha float64, w []float64) {
	idx := v.Idx
	val := v.Val[:len(idx)]
	lw := uint(len(w))
	k := 0
	for ; k+3 < len(idx); k += 4 {
		j0, j1 := uint(int(idx[k])), uint(int(idx[k+1]))
		j2, j3 := uint(int(idx[k+2])), uint(int(idx[k+3]))
		if j0|j1|j2|j3 >= lw {
			break
		}
		w[j0] += alpha * val[k]
		w[j1] += alpha * val[k+1]
		w[j2] += alpha * val[k+2]
		w[j3] += alpha * val[k+3]
	}
	for ; k < len(idx); k++ {
		j := uint(int(idx[k]))
		if j >= lw {
			break
		}
		w[j] += alpha * val[k]
	}
	if k < len(idx) && idx[k] < 0 {
		panic("sparse: AxpyDense on vector with negative index")
	}
}

// Norm2 returns the Euclidean norm.
func (v *Vector) Norm2() float64 {
	var s float64
	for _, x := range v.Val {
		s += x * x
	}
	return math.Sqrt(s)
}

// Scale multiplies all stored values by alpha in place.
func (v *Vector) Scale(alpha float64) {
	for k := range v.Val {
		v.Val[k] *= alpha
	}
}

// Map applies f to every stored value in place.
func (v *Vector) Map(f func(idx int32, val float64) float64) {
	for k := range v.Val {
		v.Val[k] = f(v.Idx[k], v.Val[k])
	}
}

// String renders the first few entries, for debugging.
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteString("[")
	for k := 0; k < len(v.Idx) && k < 8; k++ {
		if k > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d:%.4g", v.Idx[k], v.Val[k])
	}
	if len(v.Idx) > 8 {
		fmt.Fprintf(&b, " …+%d", len(v.Idx)-8)
	}
	b.WriteString("]")
	return b.String()
}

// Validate checks the strictly-increasing index invariant; it returns an
// error describing the first violation, or nil.
func (v *Vector) Validate() error {
	if len(v.Idx) != len(v.Val) {
		return fmt.Errorf("sparse: len(Idx)=%d != len(Val)=%d", len(v.Idx), len(v.Val))
	}
	for k := 1; k < len(v.Idx); k++ {
		if v.Idx[k] <= v.Idx[k-1] {
			return fmt.Errorf("sparse: indices not strictly increasing at %d: %d <= %d", k, v.Idx[k], v.Idx[k-1])
		}
	}
	return nil
}
