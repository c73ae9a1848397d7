// Package svm implements the linear support vector machine behind the
// paper's vector space models: an L2-regularized hinge-loss SVM trained by
// dual coordinate descent — the same solver family as LIBLINEAR, which the
// paper uses — over sparse TFLLR-scaled supervectors, with a one-versus-
// rest multiclass wrapper (the paper trains every language model
// one-versus-rest, Section 2.3).
//
// The dual problem is min_α ½αᵀQα − eᵀα subject to 0 ≤ α_i ≤ C with
// Q_ij = y_i·y_j·x_iᵀx_j. The solver sweeps coordinates in random order,
// maintaining the primal vector w = Σ α_i·y_i·x_i so each update is O(nnz).
// A bias term is included by augmenting every example with a constant
// feature (LIBLINEAR's -B 1).
package svm

import (
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// Training-work counters (obs run reports): models trained, solver passes
// actually executed (vs the MaxIters budget), and per-model train latency.
var (
	obsModels = obs.GetCounter("svm.train.models")
	obsPasses = obs.GetCounter("svm.train.passes")
	obsTrainS = obs.GetHistogram("svm.train.seconds")
)

// Model is a trained linear decision function f(x) = w·x + b.
type Model struct {
	W    []float64
	Bias float64
}

// Score returns the signed decision value; its magnitude is the distance
// to the separating hyperplane scaled by ‖w‖, which DBA uses as its
// confidence (paper Eq. 13 rationale).
func (m *Model) Score(x *sparse.Vector) float64 {
	return x.DotDense(m.W) + m.Bias
}

// Options controls training.
type Options struct {
	// C is the soft-margin cost (LIBLINEAR default 1).
	C float64
	// MaxIters bounds the number of full passes over the data.
	MaxIters int
	// Eps is the stopping tolerance on the maximal projected gradient
	// violation within a pass.
	Eps float64
	// Seed drives the coordinate permutation.
	Seed uint64
	// PositiveWeight scales C for positive examples; one-versus-rest
	// language recognition is heavily imbalanced (1 target language vs
	// 22), so the positive class usually gets a larger cost.
	PositiveWeight float64
}

// DefaultOptions mirrors the LIBLINEAR defaults with a class-imbalance
// correction suitable for the 23-language one-vs-rest setting.
func DefaultOptions() Options {
	return Options{
		C:              1,
		MaxIters:       200,
		Eps:            0.01,
		Seed:           1,
		PositiveWeight: 1,
	}
}

// Scratch holds the solver's per-problem working buffers (coordinate
// order, dual variables, diagonal, costs, and one-vs-rest labels) so
// repeated training — DBA retraining rounds, the 23 OVR problems —
// reuses memory instead of reallocating every slice per call. The zero
// value is ready; buffers grow on demand and are retained.
type Scratch struct {
	order []int
	alpha []float64
	qii   []float64
	cost  []float64
	ys    []int
}

// grow resizes the scratch buffers to n elements, reusing capacity.
func (sc *Scratch) grow(n int) {
	if cap(sc.order) < n {
		sc.order = make([]int, n)
		sc.alpha = make([]float64, n)
		sc.qii = make([]float64, n)
		sc.cost = make([]float64, n)
		sc.ys = make([]int, n)
	}
	sc.order = sc.order[:n]
	sc.alpha = sc.alpha[:n]
	sc.qii = sc.qii[:n]
	sc.cost = sc.cost[:n]
	sc.ys = sc.ys[:n]
}

// scratchPool recycles Scratch instances across TrainOVR workers and
// DBA retraining rounds.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// trainInto is the dual coordinate-descent core. sharedQii, when
// non-nil, supplies the precomputed Q_ii diagonal (‖x_i‖²+1) shared by
// every one-vs-rest problem over the same examples; sc, when non-nil,
// provides reusable working buffers. The arithmetic — including the
// Norm2-then-square form of Q_ii — is identical regardless of which
// buffers are borrowed, so results are bit-for-bit the same as the
// original Train.
func trainInto(xs []*sparse.Vector, ys []int, sharedQii []float64, dim int, opt Options, sc *Scratch) *Model {
	if len(xs) != len(ys) {
		panic("svm: xs/ys length mismatch")
	}
	n := len(xs)
	m := &Model{W: make([]float64, dim)}
	if n == 0 {
		return m
	}
	if opt.C <= 0 {
		opt.C = 1
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 200
	}
	if opt.PositiveWeight <= 0 {
		opt.PositiveWeight = 1
	}

	if sc == nil {
		sc = new(Scratch)
	}
	sc.grow(n)
	alpha := sc.alpha
	for i := range alpha {
		alpha[i] = 0
	}
	// Q_ii = ‖x_i‖² + 1 (bias augmentation).
	qii := sc.qii
	if sharedQii != nil {
		qii = sharedQii
	}
	cost := sc.cost
	for i, x := range xs {
		if sharedQii == nil {
			nrm := x.Norm2()
			qii[i] = nrm*nrm + 1
		}
		if ys[i] > 0 {
			cost[i] = opt.C * opt.PositiveWeight
		} else {
			cost[i] = opt.C
		}
	}
	r := rng.New(opt.Seed)
	order := sc.order
	for i := range order {
		order[i] = i
	}
	t0 := time.Now()
	passes := 0
	// Hoist the weight slice and bias into locals: m escapes (it is
	// returned), so m.Bias would otherwise be a memory load per
	// coordinate and a store per update.
	w := m.W
	bias := m.Bias
	for pass := 0; pass < opt.MaxIters; pass++ {
		passes++
		// Inline Fisher–Yates with the exact rng.Shuffle draw sequence
		// (j = Intn(i+1) for i = n-1…1): same swaps, same bits, no
		// closure call per element.
		for i := n - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		maxViolation := 0.0
		for _, i := range order {
			yi := float64(ys[i])
			g := yi*(xs[i].DotDense(w)+bias) - 1
			// Projected gradient for the box constraint.
			pg := g
			if alpha[i] <= 0 && g > 0 {
				pg = 0
			}
			if alpha[i] >= cost[i] && g < 0 {
				pg = 0
			}
			if v := math.Abs(pg); v > maxViolation {
				maxViolation = v
			}
			if pg == 0 {
				continue
			}
			old := alpha[i]
			a := old - g/qii[i]
			if a < 0 {
				a = 0
			} else if a > cost[i] {
				a = cost[i]
			}
			alpha[i] = a
			d := (a - old) * yi
			if d != 0 {
				xs[i].AxpyDense(d, w)
				bias += d
			}
		}
		if maxViolation < opt.Eps {
			break
		}
	}
	m.Bias = bias
	obsModels.Inc()
	obsPasses.Add(int64(passes))
	obsTrainS.Observe(time.Since(t0).Seconds())
	return m
}

// OneVsRest is a multiclass classifier of K binary models.
type OneVsRest struct {
	NumClasses int
	Models     []*Model
}

// TrainOVR trains one binary model per class with the remaining classes
// as negatives (the paper's Eq. 6 initialization). The per-example
// Q_ii = ‖x_i‖²+1 diagonal is computed once and shared read-only by all
// K problems — it depends only on the features, not the labels — and
// each worker draws its order/alpha/cost/label buffers from a pool, so
// the 23 one-vs-rest problems stop redoing 23× the norm work and slice
// allocations. Classes train in parallel over shared read-only data.
func TrainOVR(xs []*sparse.Vector, labels []int, numClasses, dim int, opt Options) *OneVsRest {
	o := &OneVsRest{NumClasses: numClasses, Models: make([]*Model, numClasses)}
	sharedQii := make([]float64, len(xs))
	for i, x := range xs {
		nrm := x.Norm2()
		sharedQii[i] = nrm*nrm + 1
	}
	parallel.ForPool("svm-ovr", numClasses, func(k int) {
		sc := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
		sc.grow(len(labels))
		ys := sc.ys
		for i, l := range labels {
			if l == k {
				ys[i] = 1
			} else {
				ys[i] = -1
			}
		}
		kopt := opt
		kopt.Seed = opt.Seed + uint64(k)*7919
		o.Models[k] = trainInto(xs, ys, sharedQii, dim, kopt, sc)
	})
	return o
}

// weightDim returns the weight length every model shares. ok is false
// for an empty battery, a nil model or mismatched lengths (hand-
// assembled, partial batteries), which score model by model instead.
func (o *OneVsRest) weightDim() (dim int, ok bool) {
	if len(o.Models) == 0 || o.Models[0] == nil {
		return 0, false
	}
	dim = len(o.Models[0].W)
	for _, m := range o.Models[1:] {
		if m == nil || len(m.W) != dim {
			return 0, false
		}
	}
	return dim, true
}

// ScoresInto writes the decision values of all class models for x into
// out (length NumClasses) and returns it. This is the class-grouped
// kernel, scoring straight from the row-major Models[c].W: classes go
// four at a time, each with its own register accumulator, so one pass
// over x's nonzeros serves four weight rows; a tail loop covers K mod 4.
// Every accumulator starts at 0, adds v·w[j] in nonzero order and adds
// the bias last — per class the same addition chain as Model.Score, so
// values are bit-identical to the per-model path. A battery that is not
// homogeneous scores model by model instead.
func (o *OneVsRest) ScoresInto(x *sparse.Vector, out []float64) []float64 {
	dim, ok := o.weightDim()
	if !ok {
		for k, m := range o.Models {
			out[k] = m.Score(x)
		}
		return out
	}
	// The row ends at its first index outside [0, dim). The unsigned
	// compare catches negatives too: DotDense stops at the same index
	// (and then panics on a negative one); the kernel just stops.
	n := len(x.Idx)
	for k, i := range x.Idx {
		if uint(int(i)) >= uint(dim) {
			n = k
			break
		}
	}
	idx, val := x.Idx[:n], x.Val[:n]
	c := 0
	for ; c+3 < len(o.Models); c += 4 {
		m, dst := o.Models[c:c+4:c+4], out[c:c+4:c+4]
		s0, s1, s2, s3 := dot4(idx, val, m[0].W, m[1].W, m[2].W, m[3].W)
		dst[0] = s0 + m[0].Bias
		dst[1] = s1 + m[1].Bias
		dst[2] = s2 + m[2].Bias
		dst[3] = s3 + m[3].Bias
	}
	for ; c < len(o.Models); c++ {
		w := o.Models[c].W
		var s float64
		for k, i := range idx {
			s += val[k] * w[i]
		}
		out[c] = s + o.Models[c].Bias
	}
	return out
}

// dot4 is ScoresInto's four-class pass over nonzeros already cut to
// [0, len(w0)); the weight rows share that length. It is kept out of
// line so the register allocator sees only the loop (inlined, the loop
// index spills to the stack).
//
//go:noinline
func dot4(idx []int32, val, w0, w1, w2, w3 []float64) (s0, s1, s2, s3 float64) {
	val = val[:len(idx)]
	w1, w2, w3 = w1[:len(w0)], w2[:len(w0)], w3[:len(w0)]
	for k, i := range idx {
		v := val[k]
		s0 += v * w0[i]
		s1 += v * w1[i]
		s2 += v * w2[i]
		s3 += v * w3[i]
	}
	return
}

// Scores returns the decision values of all class models for x (the row
// of the paper's score matrix F, Eq. 9).
func (o *OneVsRest) Scores(x *sparse.Vector) []float64 {
	return o.ScoresInto(x, make([]float64, o.NumClasses))
}

// ScoreAll scores every row against all classes in parallel, returning
// one score row per input. Rows are slices of a single flat arena — one
// allocation for the whole batch instead of one per utterance.
func (o *OneVsRest) ScoreAll(xs []*sparse.Vector) [][]float64 {
	K := o.NumClasses
	flat := make([]float64, len(xs)*K)
	out := make([][]float64, len(xs))
	parallel.ForPool("score", len(xs), func(i int) {
		row := flat[i*K : (i+1)*K : (i+1)*K]
		out[i] = o.ScoresInto(xs[i], row)
	})
	return out
}

// Classify returns the argmax class.
func (o *OneVsRest) Classify(x *sparse.Vector) int {
	s := o.Scores(x)
	best := 0
	for k, v := range s {
		if v > s[best] {
			best = k
		}
	}
	return best
}

// Accuracy evaluates classification accuracy on a labeled set.
func (o *OneVsRest) Accuracy(xs []*sparse.Vector, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if o.Classify(x) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}
