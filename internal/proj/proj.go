// Package proj learns and applies trained low-rank projections of
// phonotactic supervectors. "Subspace-based Representation and Learning
// for Phonotactic Spoken Language Recognition" (arXiv:2203.15576) shows
// the TFLLR-scaled supervectors of a front-end live close to a low-rank
// subspace; projecting onto the top principal directions before the SVM
// shrinks both the model (rank-r weight vectors instead of dim-length
// ones) and — once the basis itself is quantized — the serving bundle by
// an order of magnitude, at a measured EER cost (`lre -compress-eval`).
//
// Fitting is matrix-free: the top-r eigenvectors of the uncentered
// second-moment matrix Xᵀ X are found by deflated power iteration, never
// materializing the dim×dim Gram matrix. Callers can steer the leading
// directions: anchor directions (e.g. the full-dimension SVM weight
// vectors, whose span preserves linear scores exactly) come first, then
// between-class (class-mean difference) directions when labels are
// supplied — the part of the space a linear classifier actually uses —
// and only the remaining rank is spent on variance. Everything is seeded
// and greedily deflated, so fits are deterministic and a rank-R basis
// truncates exactly to any r < R.
package proj

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// Config controls a projection fit.
type Config struct {
	// Rank is the subspace dimension r (required, 1 ≤ r ≤ dim).
	Rank int
	// Iters is the power-iteration budget per direction; 0 means
	// DefaultIters.
	Iters int
	// Tol stops a direction early when its Rayleigh quotient moves by
	// less than Tol relative per iteration; 0 means DefaultTol.
	Tol float64
	// Seed drives the deterministic start vectors.
	Seed uint64
	// Anchors are dense dim-length directions folded into the basis
	// before anything else, greedily deflated by residual energy — the
	// caller's "must-span" set. Passing a linear classifier's weight
	// vectors makes the projection lossless for that classifier's
	// scores (w·x = w·Px whenever w lies in the projected span), so a
	// rank just past the class count preserves full-dimension accuracy.
	Anchors [][]float64
	// Labels supervises the fit when non-empty (one class id per
	// training vector, NumClasses must then be > 1): after any anchors,
	// the next directions become the between-class (class-mean
	// difference) directions, deflated greedily by residual energy, and
	// only the remaining rank is spent on variance directions. For a
	// linear classifier this is the part of the space scoring actually
	// uses — unsupervised variance directions at small rank discard
	// almost all class separation (measured: +14 EER points at rank 16
	// on the medium corpus, vs ~1 supervised).
	Labels []int
	// NumClasses is the label alphabet size when Labels is set.
	NumClasses int
}

// DefaultIters bounds power iteration per direction. Convergence here is
// fast because supervector spectra decay steeply — and an imperfect
// direction only blurs the subspace split, it cannot break correctness.
const DefaultIters = 50

// DefaultTol is the relative Rayleigh-quotient change that counts as
// converged.
const DefaultTol = 1e-6

// Projection is the training-time form of a fitted rank-r projection:
// orthonormal basis rows in float64. The serving form (int8,
// column-major) is built by Pack.
type Projection struct {
	Dim  int
	Rank int
	// Basis is row-major rank×dim: Basis[r*Dim : (r+1)*Dim] is the r-th
	// principal direction.
	Basis []float64
	// Energy[r] is the Rayleigh quotient (eigenvalue estimate) of
	// direction r at convergence, in fitting order — diagnostics for the
	// compress-eval sweep, not used in Apply.
	Energy []float64
}

// Fit learns a rank-r projection from training supervectors by deflated
// power iteration on S = Σᵢ xᵢxᵢᵀ. Each direction iterates v ← S v with
// re-orthogonalization against the directions already found (deflation),
// so the basis comes out orthonormal to working precision.
func Fit(xs []*sparse.Vector, dim int, cfg Config) (*Projection, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("proj: non-positive dimension %d", dim)
	}
	if cfg.Rank <= 0 || cfg.Rank > dim {
		return nil, fmt.Errorf("proj: rank %d outside [1, %d]", cfg.Rank, dim)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("proj: no training vectors")
	}
	iters := cfg.Iters
	if iters <= 0 {
		iters = DefaultIters
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = DefaultTol
	}
	p := &Projection{
		Dim:    dim,
		Rank:   cfg.Rank,
		Basis:  make([]float64, cfg.Rank*dim),
		Energy: make([]float64, cfg.Rank),
	}
	super := 0
	if len(cfg.Anchors) > 0 {
		cands := make([][]float64, len(cfg.Anchors))
		for k, a := range cfg.Anchors {
			if len(a) != dim {
				return nil, fmt.Errorf("proj: anchor %d has %d components, want %d", k, len(a), dim)
			}
			cands[k] = append([]float64(nil), a...)
		}
		super = greedyDeflate(p, cands, super, dim)
	}
	if len(cfg.Labels) > 0 {
		cands, err := classCandidates(xs, cfg, dim)
		if err != nil {
			return nil, err
		}
		super = greedyDeflate(p, cands, super, dim)
	}
	r := rng.New(cfg.Seed).SplitString("proj.fit")
	v := make([]float64, dim)
	sv := make([]float64, dim)
	for d := super; d < cfg.Rank; d++ {
		// Deterministic start: dense uniform(-1,1), independent per rank.
		rd := r.Split(uint64(d))
		for j := range v {
			v[j] = 2*rd.Float64() - 1
		}
		orthogonalize(v, p.Basis[:d*dim], dim)
		if normalize(v) == 0 {
			return nil, fmt.Errorf("proj: degenerate start for direction %d", d)
		}
		var lastQ float64
		for it := 0; it < iters; it++ {
			// sv = S v = Σᵢ (xᵢ·v) xᵢ, matrix-free over the sparse rows.
			for j := range sv {
				sv[j] = 0
			}
			for _, x := range xs {
				c := x.DotDense(v)
				if c != 0 {
					x.AxpyDense(c, sv)
				}
			}
			orthogonalize(sv, p.Basis[:d*dim], dim)
			q := normalize(sv)
			if q == 0 {
				// The residual space carries no energy: data rank < r.
				// Keep the orthonormal start direction with zero energy.
				break
			}
			copy(v, sv)
			if lastQ > 0 && math.Abs(q-lastQ) <= tol*lastQ {
				lastQ = q
				break
			}
			lastQ = q
		}
		copy(p.Basis[d*dim:(d+1)*dim], v)
		p.Energy[d] = lastQ
	}
	return p, nil
}

// classCandidates builds the between-class direction candidates
// μ_c − μ from the labelled training vectors.
func classCandidates(xs []*sparse.Vector, cfg Config, dim int) ([][]float64, error) {
	if len(cfg.Labels) != len(xs) {
		return nil, fmt.Errorf("proj: %d labels for %d vectors", len(cfg.Labels), len(xs))
	}
	if cfg.NumClasses <= 1 {
		return nil, fmt.Errorf("proj: supervised fit needs NumClasses > 1, got %d", cfg.NumClasses)
	}
	sums := make([][]float64, cfg.NumClasses)
	counts := make([]int, cfg.NumClasses)
	total := make([]float64, dim)
	for i, x := range xs {
		c := cfg.Labels[i]
		if c < 0 || c >= cfg.NumClasses {
			return nil, fmt.Errorf("proj: label %d outside [0, %d)", c, cfg.NumClasses)
		}
		if sums[c] == nil {
			sums[c] = make([]float64, dim)
		}
		x.AxpyDense(1, sums[c])
		x.AxpyDense(1, total)
		counts[c]++
	}
	n := float64(len(xs))
	var cands [][]float64
	for c, s := range sums {
		if s == nil {
			continue
		}
		inv := 1 / float64(counts[c])
		for j := range s {
			s[j] = s[j]*inv - total[j]/n
		}
		cands = append(cands, s)
	}
	return cands, nil
}

// greedyDeflate fills basis rows of p starting at row `start` with the
// orthonormalized candidates, chosen greedily by residual norm so the
// deflation ordering (and therefore exact truncation to any smaller
// rank) is preserved. Candidates are consumed destructively; linearly
// dependent ones are dropped once their residual energy is numerically
// exhausted. Returns the next free row.
func greedyDeflate(p *Projection, cands [][]float64, start, dim int) int {
	// Remove the span of rows already in the basis (earlier tiers).
	for _, c := range cands {
		orthogonalize(c, p.Basis[:start*dim], dim)
	}
	// Greedy deflation: pick the largest residual, normalize it into the
	// basis, remove its span from every remaining candidate.
	d := start
	var first float64
	for d < p.Rank && len(cands) > 0 {
		best, bestSq := 0, 0.0
		for k, c := range cands {
			var sq float64
			for _, v := range c {
				sq += v * v
			}
			if sq > bestSq {
				best, bestSq = k, sq
			}
		}
		if first == 0 {
			first = bestSq
		}
		// Candidate sets are often linearly dependent (class-mean
		// residuals sum to ~zero when classes are balanced): once the
		// residual energy is numerically exhausted the remaining
		// candidates are noise.
		if bestSq <= 1e-18 || bestSq <= 1e-20*first {
			break
		}
		b := cands[best]
		inv := 1 / math.Sqrt(bestSq)
		row := p.Basis[d*dim : (d+1)*dim]
		for j, v := range b {
			row[j] = v * inv
		}
		p.Energy[d] = bestSq
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
		for _, c := range cands {
			var dot float64
			for j, v := range c {
				dot += v * row[j]
			}
			if dot != 0 {
				for j := range c {
					c[j] -= dot * row[j]
				}
			}
		}
		d++
	}
	return d
}

// orthogonalize removes from v its components along the given basis rows
// (classical Gram–Schmidt, two passes — "twice is enough": one pass
// leaves O(ε·‖v‖) residuals along dominant removed directions, which
// power iteration re-amplifies into a duplicated direction once the
// genuine residual space is exhausted).
func orthogonalize(v, basis []float64, dim int) {
	for pass := 0; pass < 2; pass++ {
		for r := 0; r*dim < len(basis); r++ {
			b := basis[r*dim : (r+1)*dim]
			var c float64
			for j, bv := range b {
				c += v[j] * bv
			}
			if c != 0 {
				for j, bv := range b {
					v[j] -= c * bv
				}
			}
		}
	}
}

// normalize scales v to unit length, returning the pre-normalization
// norm (0 leaves v untouched).
func normalize(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	n := math.Sqrt(s)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for j := range v {
		v[j] *= inv
	}
	return n
}

// Pack builds the serving form of the projection: the basis quantized
// symmetrically per direction (per output component) to int8, laid out
// column-major (feature-major) so applying it walks a supervector's
// nonzeros once with Rank contiguous multiply-adds per nonzero, and the
// dequantization is a single per-direction scale in the epilogue.
func (p *Projection) Pack() (*Packed, error) {
	pk := &Packed{
		Dim:   p.Dim,
		Rank:  p.Rank,
		Q8:    make([]byte, len(p.Basis)),
		Scale: make([]float64, p.Rank),
	}
	for d := 0; d < p.Rank; d++ {
		row := p.Basis[d*p.Dim : (d+1)*p.Dim]
		var maxAbs float64
		for _, w := range row {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("proj: direction %d has a non-finite component", d)
			}
			if a := math.Abs(w); a > maxAbs {
				maxAbs = a
			}
		}
		s := maxAbs / 127
		if s == 0 {
			s = 1
		}
		pk.Scale[d] = s
		for j, w := range row {
			pk.Q8[j*p.Rank+d] = byte(int8(math.RoundToEven(w / s)))
		}
	}
	return pk, nil
}

// Packed is the persisted, serve-time form of a projection: the int8
// basis in column-major (feature-major) layout, byte-encoded (gob
// stores byte slices at one byte per element — the reason a rank-32
// int8 basis is ~9× smaller than its float64 form on disk) with a
// per-direction symmetric dequantization scale.
type Packed struct {
	Dim  int
	Rank int
	Q8   []byte
	// Scale[d] dequantizes direction d of Q8.
	Scale []float64
}

// Validate checks the invariants ApplyInto relies on — the backstop
// behind untrusted gob decodes (truncated blocks, NaN scales), which must
// error cleanly rather than panic at scoring time.
func (pk *Packed) Validate() error {
	if pk == nil {
		return nil
	}
	if pk.Dim <= 0 || pk.Rank <= 0 || pk.Rank > pk.Dim {
		return fmt.Errorf("proj: packed projection rank %d over dimension %d", pk.Rank, pk.Dim)
	}
	if want := pk.Dim * pk.Rank; len(pk.Q8) != want {
		return fmt.Errorf("proj: packed projection holds %d weights, want %d", len(pk.Q8), want)
	}
	if len(pk.Scale) != pk.Rank {
		return fmt.Errorf("proj: packed projection has %d scales, want %d", len(pk.Scale), pk.Rank)
	}
	for d, s := range pk.Scale {
		if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
			return fmt.Errorf("proj: packed projection direction %d has scale %v", d, s)
		}
	}
	return nil
}

// ApplyInto writes the projection of a raw-space supervector into out
// (length Rank), dequantizing in the epilogue. Allocation-free.
func (pk *Packed) ApplyInto(x *sparse.Vector, out []float64) {
	R := pk.Rank
	for d := range out {
		out[d] = 0
	}
	val := x.Val[:len(x.Idx)]
	for k, i := range x.Idx {
		j := int(i)
		if j >= pk.Dim {
			break
		}
		xv := val[k]
		col := pk.Q8[j*R : j*R+R]
		for d, w := range col {
			out[d] += xv * float64(int8(w))
		}
	}
	for d := range out {
		out[d] *= pk.Scale[d]
	}
}

// Apply returns the projection as a dense rank-dim sparse vector.
func (pk *Packed) Apply(x *sparse.Vector) *sparse.Vector {
	out := make([]float64, pk.Rank)
	pk.ApplyInto(x, out)
	return sparse.FromDense(out)
}

// Bytes reports the in-memory footprint of the packed basis.
func (pk *Packed) Bytes() int {
	if pk == nil {
		return 0
	}
	return len(pk.Q8) + len(pk.Scale)*8
}
