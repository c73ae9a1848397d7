// Package fusion implements the paper's LDA-MMI score-fusion backend
// (step g, Eq. 14–15) at the detection-trial level: every (utterance,
// language) pair is one trial whose feature vector holds the Q
// subsystems' scores for that pair (optionally weighted per subsystem,
// Eq. 15), and the backend tells target from non-target trials. Features
// are projected by linear discriminant analysis and classified by a
// Gaussian backend whose means and priors are refined by gradient ascent
// on the maximum-mutual-information objective
//
//	F_MMI(λ) = Σ_i log [ p(x_i|λ_{g(i)})·P(g(i)) / Σ_j p(x_i|λ_j)·P(j) ],
//
// i.e. the sum of log class posteriors. ML initialization gives the
// Gaussians; MMI sharpens the decision boundaries — exactly the
// discriminative calibration the paper fuses its six (or twelve, for
// (DBA-M1)+(DBA-M2)) subsystems with.
//
// Trials builds the training trials every backend in the repository is
// fit on, and Decide turns one utterance's per-subsystem rows into its
// decision row — the fused target log-odds, or the mean row without a
// backend. Offline tables, exported bundles, the cascade's heavy path,
// the adapt gates and the serving daemon all fuse through these two.
package fusion

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Trials builds the detection trials of the utterances in idx (nil: every
// utterance of labels, in order) from per-subsystem score matrices
// mats[q][i][k]. Trial (i, k) has feature q = weights[q]·mats[q][i][k]
// (nil weights: the raw score) and label 1 when labels[i] == k (target),
// 0 otherwise. Trials come utterance-major, languages in order; the
// feature vectors share one row-major arena.
func Trials(mats [][][]float64, weights []float64, labels, idx []int) (x [][]float64, y []int) {
	q := len(mats)
	if weights != nil && len(weights) != q {
		panic("fusion: weights length mismatch")
	}
	if idx == nil {
		idx = make([]int, len(labels))
		for i := range idx {
			idx[i] = i
		}
	}
	if q == 0 || len(idx) == 0 {
		return nil, nil
	}
	k := len(mats[0][idx[0]])
	arena := make([]float64, len(idx)*k*q)
	x = make([][]float64, 0, len(idx)*k)
	y = make([]int, 0, len(idx)*k)
	for _, i := range idx {
		for c := 0; c < k; c++ {
			feat := arena[:q:q]
			arena = arena[q:]
			for s := range feat {
				v := mats[s][i][c]
				if weights != nil {
					v *= weights[s]
				}
				feat[s] = v
			}
			x = append(x, feat)
			if labels[i] == c {
				y = append(y, 1)
			} else {
				y = append(y, 0)
			}
		}
	}
	return x, y
}

// Decide turns one utterance's per-subsystem score rows into its decision
// row. rows[q] is subsystem q's row over the languages, nil when q is
// missing. With a backend (trained on len(rows) subsystems by Trials) the
// row is the target log-odds per language: Score when every row is
// present, ScoreMasked over the survivors otherwise. Without one it is
// the mean of the present rows, accumulated in subsystem order. Nil when
// no row is present.
func Decide(b *Backend, rows [][]float64) []float64 {
	n, numLangs := 0, 0
	present := make([]bool, len(rows))
	for q, row := range rows {
		if row != nil {
			present[q] = true
			n++
			numLangs = len(row)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, numLangs)
	if b == nil {
		for _, row := range rows {
			for k, v := range row {
				out[k] += v / float64(n)
			}
		}
		return out
	}
	x := make([]float64, len(rows))
	for k := range out {
		for q, row := range rows {
			if row != nil {
				x[q] = row[k]
			}
		}
		// Class 1 of the two-class trial backend is "target".
		out[k] = b.ScoreMasked(x, present)[1]
	}
	return out
}

// DecideAll applies Decide to every utterance j of per-subsystem score
// matrices mats[q][j][k].
func DecideAll(b *Backend, mats [][][]float64) [][]float64 {
	if len(mats) == 0 {
		return nil
	}
	out := make([][]float64, len(mats[0]))
	rows := make([][]float64, len(mats))
	for j := range out {
		for q := range rows {
			rows[q] = mats[q][j]
		}
		out[j] = Decide(b, rows)
	}
	return out
}

// SelectionWeights computes the paper's subsystem weights
// w_n = M_n / Σ_m M_m, where M_n is how many test utterances met the
// confidence criterion in subsystem n.
func SelectionWeights(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	w := make([]float64, len(counts))
	if total == 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return w
	}
	for i, c := range counts {
		w[i] = float64(c) / float64(total)
	}
	return w
}

// Backend is the trained LDA-MMI fusion model.
type Backend struct {
	// Projection is the d×D LDA matrix (rows are discriminant directions).
	Projection *linalg.Matrix
	// Means[k] is class k's Gaussian mean in the projected space.
	Means [][]float64
	// Prec is the shared diagonal precision (1/variance) vector.
	Prec []float64
	// LogPriors per class.
	LogPriors []float64
}

// Config controls backend training.
type Config struct {
	// OutDim is the LDA output dimension; 0 means min(K−1, D).
	OutDim int
	// MMIIters is the number of gradient-ascent epochs (0 disables MMI,
	// leaving the ML-initialized Gaussian backend — the LDA-only ablation).
	MMIIters int
	// LearnRate for the MMI updates.
	LearnRate float64
	// Ridge regularizes the within-class scatter before inversion.
	Ridge float64
}

// DefaultConfig mirrors the paper's backend at our scale.
func DefaultConfig() Config {
	return Config{MMIIters: 30, LearnRate: 0.05, Ridge: 1e-3}
}

// Train fits the backend on development data: x[i] is a stacked score
// vector, labels[i] its language.
func Train(x [][]float64, labels []int, numClasses int, cfg Config) (*Backend, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("fusion: no training data")
	}
	if len(x) != len(labels) {
		return nil, fmt.Errorf("fusion: %d vectors for %d labels", len(x), len(labels))
	}
	d := len(x[0])
	outDim := cfg.OutDim
	if outDim <= 0 || outDim > d {
		outDim = numClasses - 1
		if outDim > d {
			outDim = d
		}
	}
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = 0.05
	}
	if cfg.Ridge <= 0 {
		cfg.Ridge = 1e-3
	}

	// --- LDA ---
	classMean := make([][]float64, numClasses)
	classN := make([]float64, numClasses)
	for k := range classMean {
		classMean[k] = make([]float64, d)
	}
	globalMean := make([]float64, d)
	for i, xi := range x {
		k := labels[i]
		classN[k]++
		linalg.Axpy(1, xi, classMean[k])
		linalg.Axpy(1, xi, globalMean)
	}
	linalg.ScaleVec(1/float64(len(x)), globalMean)
	for k := range classMean {
		if classN[k] > 0 {
			linalg.ScaleVec(1/classN[k], classMean[k])
		}
	}
	sw := linalg.NewMatrix(d, d)
	sb := linalg.NewMatrix(d, d)
	diff := make([]float64, d)
	for i, xi := range x {
		k := labels[i]
		for j := range diff {
			diff[j] = xi[j] - classMean[k][j]
		}
		linalg.Outer(sw, 1, diff, diff)
	}
	for k := range classMean {
		if classN[k] == 0 {
			continue
		}
		for j := range diff {
			diff[j] = classMean[k][j] - globalMean[j]
		}
		linalg.Outer(sb, classN[k], diff, diff)
	}
	// Ridge: Sw + λ·tr(Sw)/d·I keeps Cholesky well-posed.
	var tr float64
	for j := 0; j < d; j++ {
		tr += sw.At(j, j)
	}
	ridge := cfg.Ridge*tr/float64(d) + 1e-8
	for j := 0; j < d; j++ {
		sw.Add(j, j, ridge)
	}
	_, vecs, err := linalg.GenSymEig(sb, sw)
	if err != nil {
		return nil, fmt.Errorf("fusion: LDA eigenproblem: %w", err)
	}
	proj := linalg.NewMatrix(outDim, d)
	for r := 0; r < outDim; r++ {
		for c := 0; c < d; c++ {
			proj.Set(r, c, vecs.At(c, r))
		}
	}

	b := &Backend{Projection: proj}

	// --- ML Gaussian initialization in the projected space ---
	z := make([][]float64, len(x))
	for i, xi := range x {
		z[i] = linalg.MulVec(proj, xi)
	}
	b.Means = make([][]float64, numClasses)
	for k := range b.Means {
		b.Means[k] = make([]float64, outDim)
	}
	counts := make([]float64, numClasses)
	for i, zi := range z {
		k := labels[i]
		counts[k]++
		linalg.Axpy(1, zi, b.Means[k])
	}
	for k := range b.Means {
		if counts[k] > 0 {
			linalg.ScaleVec(1/counts[k], b.Means[k])
		}
	}
	variance := make([]float64, outDim)
	for i, zi := range z {
		mk := b.Means[labels[i]]
		for j := range variance {
			dv := zi[j] - mk[j]
			variance[j] += dv * dv
		}
	}
	b.Prec = make([]float64, outDim)
	for j := range variance {
		v := variance[j] / float64(len(z))
		if v < 1e-6 {
			v = 1e-6
		}
		b.Prec[j] = 1 / v
	}
	b.LogPriors = make([]float64, numClasses)
	for k := range b.LogPriors {
		b.LogPriors[k] = math.Log((counts[k] + 1) / (float64(len(z)) + float64(numClasses)))
	}

	// --- MMI refinement (Eq. 14): gradient ascent on Σ log P(y|z) ---
	// The mean updates use the natural-gradient (covariance-preconditioned)
	// form μ_k += η·E[(1{y=k} − P(k|z))·(z − μ_k)], which removes the
	// precision factor from the raw gradient; with sharp projected
	// variances the plain gradient step diverges.
	post := make([]float64, numClasses)
	for it := 0; it < cfg.MMIIters; it++ {
		gradMeans := make([][]float64, numClasses)
		gradPrior := make([]float64, numClasses)
		for k := range gradMeans {
			gradMeans[k] = make([]float64, outDim)
		}
		for i, zi := range z {
			b.posteriors(zi, post)
			for k := 0; k < numClasses; k++ {
				ind := 0.0
				if labels[i] == k {
					ind = 1
				}
				coef := ind - post[k]
				gradPrior[k] += coef
				gm := gradMeans[k]
				mk := b.Means[k]
				for j := 0; j < outDim; j++ {
					gm[j] += coef * (zi[j] - mk[j])
				}
			}
		}
		scale := cfg.LearnRate / float64(len(z))
		for k := 0; k < numClasses; k++ {
			linalg.Axpy(scale, gradMeans[k], b.Means[k])
			b.LogPriors[k] += scale * gradPrior[k]
		}
		// Renormalize priors.
		b.normalizePriors()
	}
	return b, nil
}

func (b *Backend) normalizePriors() {
	maxv := math.Inf(-1)
	for _, lp := range b.LogPriors {
		if lp > maxv {
			maxv = lp
		}
	}
	var sum float64
	for _, lp := range b.LogPriors {
		sum += math.Exp(lp - maxv)
	}
	logZ := maxv + math.Log(sum)
	for k := range b.LogPriors {
		b.LogPriors[k] -= logZ
	}
}

// logLik returns the Gaussian log likelihood of projected point z under
// class k (up to the shared constant, which cancels in posteriors).
func (b *Backend) logLik(z []float64, k int) float64 {
	var quad float64
	mk := b.Means[k]
	for j, v := range z {
		dv := v - mk[j]
		quad += dv * dv * b.Prec[j]
	}
	return -0.5 * quad
}

// posteriors fills post with P(k|z).
func (b *Backend) posteriors(z []float64, post []float64) {
	maxv := math.Inf(-1)
	for k := range post {
		post[k] = b.LogPriors[k] + b.logLik(z, k)
		if post[k] > maxv {
			maxv = post[k]
		}
	}
	var sum float64
	for k := range post {
		post[k] = math.Exp(post[k] - maxv)
		sum += post[k]
	}
	for k := range post {
		post[k] /= sum
	}
}

// Score returns per-class fused log-posterior scores for a stacked score
// vector (higher = more likely). These are the final detection scores.
func (b *Backend) Score(x []float64) []float64 {
	z := linalg.MulVec(b.Projection, x)
	out := make([]float64, len(b.Means))
	post := make([]float64, len(b.Means))
	b.posteriors(z, post)
	for k := range out {
		p := post[k]
		if p < 1e-12 {
			p = 1e-12
		}
		if p > 1-1e-12 {
			p = 1 - 1e-12
		}
		// Log-odds detection score: positive when the class is more
		// likely than not, matching the SVM sign convention downstream.
		out[k] = math.Log(p / (1 - p))
	}
	return out
}

// ScoreMasked scores a stacked vector in which some subsystem features
// are missing (present[q] == false): each missing feature is imputed with
// the mean of the surviving features, then the backend scores the
// completed vector exactly as Score would. This is the serving layer's
// documented degraded-fusion contract (DESIGN.md "Graceful degradation"):
// subsystem scores for the same trial are strongly correlated — that
// correlation is why fusion helps at all — so the survivors' mean is the
// minimum-assumption estimate of a dead subsystem's score, and it keeps
// the LDA projection's input scale (and hence the backend's calibration)
// intact instead of zeroing a feature the projection weights heavily.
// With every feature present the result is bit-identical to Score; with
// none present it returns nil.
func (b *Backend) ScoreMasked(x []float64, present []bool) []float64 {
	if len(present) != len(x) {
		panic("fusion: present mask length mismatch")
	}
	var sum float64
	n := 0
	for q, ok := range present {
		if ok {
			sum += x[q]
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if n == len(x) {
		return b.Score(x)
	}
	mean := sum / float64(n)
	filled := make([]float64, len(x))
	for q := range x {
		if present[q] {
			filled[q] = x[q]
		} else {
			filled[q] = mean
		}
	}
	return b.Score(filled)
}
