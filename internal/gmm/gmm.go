// Package gmm implements diagonal-covariance Gaussian mixture models with
// k-means initialization and expectation–maximization training. GMMs are
// the emission densities of the GMM-HMM phone recognizers (the paper's
// Mandarin and English GMM-HMM front-ends use 32 Gaussians per tied state)
// and the class-conditional models of the MMI fusion backend.
package gmm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/gobwire"
	"repro/internal/rng"
)

// GMM is a mixture of diagonal-covariance Gaussians.
type GMM struct {
	Dim        int
	NumComp    int
	Weights    []float64   // len NumComp, sums to 1
	Means      [][]float64 // NumComp × Dim
	Vars       [][]float64 // NumComp × Dim, floored
	logConst   []float64   // per-component log normalizer cache
	logWeights []float64
}

const varFloor = 1e-3

// New allocates an untrained GMM.
func New(dim, numComp int) *GMM {
	g := &GMM{
		Dim:     dim,
		NumComp: numComp,
		Weights: make([]float64, numComp),
		Means:   make([][]float64, numComp),
		Vars:    make([][]float64, numComp),
	}
	for c := 0; c < numComp; c++ {
		g.Means[c] = make([]float64, dim)
		g.Vars[c] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			g.Vars[c][d] = 1
		}
		g.Weights[c] = 1 / float64(numComp)
	}
	g.RefreshCache()
	return g
}

// RefreshCache recomputes the cached log normalizers; call after any
// direct parameter mutation (MAP adaptation mutates means in place).
func (g *GMM) RefreshCache() {
	g.logConst = make([]float64, g.NumComp)
	g.logWeights = make([]float64, g.NumComp)
	for c := 0; c < g.NumComp; c++ {
		var logDet float64
		for d := 0; d < g.Dim; d++ {
			logDet += math.Log(g.Vars[c][d])
		}
		g.logConst[c] = -0.5 * (float64(g.Dim)*math.Log(2*math.Pi) + logDet)
		if g.Weights[c] > 0 {
			g.logWeights[c] = math.Log(g.Weights[c])
		} else {
			g.logWeights[c] = math.Inf(-1)
		}
	}
}

// LogProbComp returns the log density of x under component c (without the
// mixture weight).
func (g *GMM) LogProbComp(c int, x []float64) float64 {
	var quad float64
	mean, vr := g.Means[c], g.Vars[c]
	for d, v := range x {
		diff := v - mean[d]
		quad += diff * diff / vr[d]
	}
	return g.logConst[c] - 0.5*quad
}

// LogProb returns the log mixture density of x.
func (g *GMM) LogProb(x []float64) float64 {
	maxv := math.Inf(-1)
	lps := make([]float64, g.NumComp)
	for c := 0; c < g.NumComp; c++ {
		lp := g.logWeights[c] + g.LogProbComp(c, x)
		lps[c] = lp
		if lp > maxv {
			maxv = lp
		}
	}
	if math.IsInf(maxv, -1) {
		return maxv
	}
	var sum float64
	for _, lp := range lps {
		sum += math.Exp(lp - maxv)
	}
	return maxv + math.Log(sum)
}

// Posteriors fills post with the component posteriors of x and returns the
// total log density.
func (g *GMM) Posteriors(x []float64, post []float64) float64 {
	maxv := math.Inf(-1)
	for c := 0; c < g.NumComp; c++ {
		lp := g.logWeights[c] + g.LogProbComp(c, x)
		post[c] = lp
		if lp > maxv {
			maxv = lp
		}
	}
	var sum float64
	for c := range post {
		post[c] = math.Exp(post[c] - maxv)
		sum += post[c]
	}
	for c := range post {
		post[c] /= sum
	}
	return maxv + math.Log(sum)
}

// KMeansInit seeds the means with k-means++ style sampling followed by a
// few Lloyd iterations, and sets variances from cluster scatter.
func (g *GMM) KMeansInit(r *rng.RNG, data [][]float64, iters int) {
	n := len(data)
	if n == 0 {
		return
	}
	// k-means++ seeding.
	first := r.Intn(n)
	copy(g.Means[0], data[first])
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(data[i], g.Means[0])
	}
	for c := 1; c < g.NumComp; c++ {
		var total float64
		for _, d := range minDist {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = r.Intn(n)
		} else {
			u := r.Float64() * total
			var acc float64
			for i, d := range minDist {
				acc += d
				if u < acc {
					pick = i
					break
				}
			}
		}
		copy(g.Means[c], data[pick])
		for i := range minDist {
			if d := sqDist(data[i], g.Means[c]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	// Lloyd iterations.
	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		for i, x := range data {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < g.NumComp; c++ {
				if d := sqDist(x, g.Means[c]); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
		}
		counts := make([]int, g.NumComp)
		for c := range g.Means {
			for d := range g.Means[c] {
				g.Means[c][d] = 0
			}
		}
		for i, x := range data {
			c := assign[i]
			counts[c]++
			for d, v := range x {
				g.Means[c][d] += v
			}
		}
		for c := 0; c < g.NumComp; c++ {
			if counts[c] == 0 {
				// Re-seed empty cluster at a random point.
				copy(g.Means[c], data[r.Intn(n)])
				continue
			}
			for d := range g.Means[c] {
				g.Means[c][d] /= float64(counts[c])
			}
		}
	}
	// Cluster scatter → variances and weights.
	counts := make([]float64, g.NumComp)
	for c := range g.Vars {
		for d := range g.Vars[c] {
			g.Vars[c][d] = 0
		}
	}
	for i, x := range data {
		c := assign[i]
		counts[c]++
		for d, v := range x {
			diff := v - g.Means[c][d]
			g.Vars[c][d] += diff * diff
		}
	}
	for c := 0; c < g.NumComp; c++ {
		if counts[c] < 2 {
			for d := range g.Vars[c] {
				g.Vars[c][d] = 1
			}
			g.Weights[c] = 1 / float64(n)
			continue
		}
		for d := range g.Vars[c] {
			g.Vars[c][d] /= counts[c]
			if g.Vars[c][d] < varFloor {
				g.Vars[c][d] = varFloor
			}
		}
		g.Weights[c] = counts[c] / float64(n)
	}
	normalizeWeights(g.Weights)
	g.RefreshCache()
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

func normalizeWeights(w []float64) {
	var s float64
	for _, v := range w {
		s += v
	}
	if s <= 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return
	}
	for i := range w {
		w[i] /= s
	}
}

// TrainEM runs EM on data; returns the per-frame log likelihood after the
// final iteration. Weighted variant available via TrainEMWeighted.
func (g *GMM) TrainEM(data [][]float64, iters int) float64 {
	w := make([]float64, len(data))
	for i := range w {
		w[i] = 1
	}
	return g.TrainEMWeighted(data, w, iters)
}

// TrainEMWeighted runs EM with per-frame weights (used by HMM training
// where state occupancies weight the frames).
func (g *GMM) TrainEMWeighted(data [][]float64, frameWeights []float64, iters int) float64 {
	if len(data) != len(frameWeights) {
		panic("gmm: data/weight length mismatch")
	}
	if len(data) == 0 {
		return math.Inf(-1)
	}
	post := make([]float64, g.NumComp)
	var ll float64
	for it := 0; it < iters; it++ {
		occ := make([]float64, g.NumComp)
		meanAcc := make([][]float64, g.NumComp)
		varAcc := make([][]float64, g.NumComp)
		for c := range meanAcc {
			meanAcc[c] = make([]float64, g.Dim)
			varAcc[c] = make([]float64, g.Dim)
		}
		ll = 0
		var totalW float64
		for i, x := range data {
			fw := frameWeights[i]
			if fw <= 0 {
				continue
			}
			ll += fw * g.Posteriors(x, post)
			totalW += fw
			for c := 0; c < g.NumComp; c++ {
				pw := post[c] * fw
				if pw == 0 {
					continue
				}
				occ[c] += pw
				ma, va := meanAcc[c], varAcc[c]
				for d, v := range x {
					ma[d] += pw * v
					va[d] += pw * v * v
				}
			}
		}
		if totalW == 0 {
			return math.Inf(-1)
		}
		for c := 0; c < g.NumComp; c++ {
			if occ[c] < 1e-8 {
				continue // leave starving component untouched
			}
			for d := 0; d < g.Dim; d++ {
				m := meanAcc[c][d] / occ[c]
				g.Means[c][d] = m
				v := varAcc[c][d]/occ[c] - m*m
				if v < varFloor {
					v = varFloor
				}
				g.Vars[c][d] = v
			}
			g.Weights[c] = occ[c] / totalW
		}
		normalizeWeights(g.Weights)
		g.RefreshCache()
	}
	// Final log likelihood per unit weight.
	var totalW float64
	for _, fw := range frameWeights {
		totalW += fw
	}
	return ll / totalW
}

// Train is the standard recipe: k-means init then EM.
func Train(r *rng.RNG, data [][]float64, dim, numComp, kmeansIters, emIters int) *GMM {
	g := New(dim, numComp)
	g.KMeansInit(r, data, kmeansIters)
	g.TrainEM(data, emIters)
	return g
}

// Validate checks model invariants.
func (g *GMM) Validate() error {
	var s float64
	for c, w := range g.Weights {
		if w < 0 {
			return fmt.Errorf("gmm: negative weight at %d", c)
		}
		s += w
		for d, v := range g.Vars[c] {
			if v < varFloor-1e-12 {
				return fmt.Errorf("gmm: variance %v below floor at (%d,%d)", v, c, d)
			}
		}
	}
	if math.Abs(s-1) > 1e-6 {
		return fmt.Errorf("gmm: weights sum to %v", s)
	}
	return nil
}

// gmmWire is the gob wire format (the cache fields are rebuilt on load).
type gmmWire struct {
	Dim, NumComp int
	Weights      []float64
	Means, Vars  [][]float64
}

// GobEncode implements gob.GobEncoder.
func (g *GMM) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(gmmWire{
		Dim: g.Dim, NumComp: g.NumComp,
		Weights: g.Weights, Means: g.Means, Vars: g.Vars,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder and rebuilds the likelihood caches.
func (g *GMM) GobDecode(data []byte) error {
	var w gmmWire
	if err := gobwire.Unmarshal(data, &w); err != nil {
		return err
	}
	g.Dim, g.NumComp = w.Dim, w.NumComp
	g.Weights, g.Means, g.Vars = w.Weights, w.Means, w.Vars
	g.RefreshCache()
	return nil
}
