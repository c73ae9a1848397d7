// Package acousticlr implements the *acoustic* language-recognition
// baseline that the paper's introduction contrasts phonotactic systems
// against (its reference [3], Torres-Carrasquillo et al.): shifted-delta-
// cepstral (SDC) features modeled by Gaussian mixture models with a
// universal background model (GMM-UBM) and MAP-adapted per-language
// models, scored by average frame log-likelihood ratio.
//
// The package exists so the repository carries both families the paper
// positions itself between; examples and tests compare the acoustic
// baseline against the phonotactic PPRVSM stack on the same synthetic
// audio.
package acousticlr

import (
	"fmt"

	"repro/internal/gmm"
	"repro/internal/rng"
)

// SDCConfig is the classic N-d-P-k shifted-delta-cepstra configuration;
// LRE systems conventionally use 7-1-3-7: 7 cepstra, delta spread 1,
// block shift 3, 7 stacked blocks → 49 dimensions.
type SDCConfig struct {
	N int // cepstral coefficients used per frame
	D int // delta spread (frames each side)
	P int // shift between blocks
	K int // number of stacked blocks
}

// DefaultSDC returns the 7-1-3-7 configuration.
func DefaultSDC() SDCConfig { return SDCConfig{N: 7, D: 1, P: 3, K: 7} }

// Dim returns the SDC feature dimension.
func (c SDCConfig) Dim() int { return c.N * c.K }

// ComputeSDC stacks K delta blocks over the first N cepstral coefficients:
// block k of frame t is c[t+k·P+D][0:N] − c[t+k·P−D][0:N]. Frames whose
// context exceeds the utterance are dropped, matching standard practice.
func ComputeSDC(cepstra [][]float64, cfg SDCConfig) [][]float64 {
	if cfg.N <= 0 || cfg.D <= 0 || cfg.P <= 0 || cfg.K <= 0 {
		panic("acousticlr: invalid SDC configuration")
	}
	t := len(cepstra)
	last := t - ((cfg.K-1)*cfg.P + cfg.D) // exclusive bound for t
	var out [][]float64
	for i := cfg.D; i < last; i++ {
		row := make([]float64, 0, cfg.Dim())
		ok := true
		for k := 0; k < cfg.K; k++ {
			hi := i + k*cfg.P + cfg.D
			lo := i + k*cfg.P - cfg.D
			if lo < 0 || hi >= t || len(cepstra[hi]) < cfg.N || len(cepstra[lo]) < cfg.N {
				ok = false
				break
			}
			for n := 0; n < cfg.N; n++ {
				row = append(row, cepstra[hi][n]-cepstra[lo][n])
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// Config controls recognizer training.
type Config struct {
	SDC SDCConfig
	// UBMMix is the UBM mixture size (LRE systems use 512–2048; tests use
	// far fewer).
	UBMMix int
	// MAPTau is the MAP relevance factor for mean adaptation (16 classic).
	MAPTau float64
	// EMIters for UBM training.
	EMIters int
	// Seed drives k-means and EM initialization.
	Seed uint64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{SDC: DefaultSDC(), UBMMix: 32, MAPTau: 16, EMIters: 6, Seed: 1}
}

// Recognizer is a trained GMM-UBM acoustic language recognizer.
type Recognizer struct {
	Cfg        Config
	UBM        *gmm.GMM
	LangModels []*gmm.GMM
}

// Train fits the UBM on pooled frames and MAP-adapts the means per
// language. framesPerLang[k] holds language k's training SDC frames.
func Train(cfg Config, framesPerLang [][][]float64) (*Recognizer, error) {
	if len(framesPerLang) == 0 {
		return nil, fmt.Errorf("acousticlr: no training languages")
	}
	var pooled [][]float64
	for _, frames := range framesPerLang {
		pooled = append(pooled, frames...)
	}
	if len(pooled) == 0 {
		return nil, fmt.Errorf("acousticlr: no training frames")
	}
	dim := len(pooled[0])
	mix := cfg.UBMMix
	if len(pooled) < 4*mix {
		mix = len(pooled)/4 + 1
	}
	r := rng.New(cfg.Seed)
	ubm := gmm.Train(r, pooled, dim, mix, 8, cfg.EMIters)

	rec := &Recognizer{Cfg: cfg, UBM: ubm, LangModels: make([]*gmm.GMM, len(framesPerLang))}
	for k, frames := range framesPerLang {
		rec.LangModels[k] = mapAdaptMeans(ubm, frames, cfg.MAPTau)
	}
	return rec, nil
}

// mapAdaptMeans performs classic relevance-MAP adaptation of the UBM means
// toward the language data; weights and variances stay tied to the UBM.
func mapAdaptMeans(ubm *gmm.GMM, frames [][]float64, tau float64) *gmm.GMM {
	adapted := gmm.New(ubm.Dim, ubm.NumComp)
	// Copy UBM parameters.
	copy(adapted.Weights, ubm.Weights)
	for c := 0; c < ubm.NumComp; c++ {
		copy(adapted.Means[c], ubm.Means[c])
		copy(adapted.Vars[c], ubm.Vars[c])
	}
	if len(frames) == 0 || tau < 0 {
		adapted.RefreshCache()
		return adapted
	}
	occ := make([]float64, ubm.NumComp)
	acc := make([][]float64, ubm.NumComp)
	for c := range acc {
		acc[c] = make([]float64, ubm.Dim)
	}
	post := make([]float64, ubm.NumComp)
	for _, x := range frames {
		ubm.Posteriors(x, post)
		for c, p := range post {
			if p < 1e-8 {
				continue
			}
			occ[c] += p
			row := acc[c]
			for d, v := range x {
				row[d] += p * v
			}
		}
	}
	for c := 0; c < ubm.NumComp; c++ {
		if occ[c] <= 0 {
			continue
		}
		alpha := occ[c] / (occ[c] + tau)
		for d := 0; d < ubm.Dim; d++ {
			ml := acc[c][d] / occ[c]
			adapted.Means[c][d] = alpha*ml + (1-alpha)*ubm.Means[c][d]
		}
	}
	adapted.RefreshCache()
	return adapted
}

// Score returns per-language average-frame log-likelihood ratios against
// the UBM — the standard GMM-UBM detection score.
func (rec *Recognizer) Score(frames [][]float64) []float64 {
	out := make([]float64, len(rec.LangModels))
	if len(frames) == 0 {
		return out
	}
	for k, m := range rec.LangModels {
		var llr float64
		for _, x := range frames {
			llr += m.LogProb(x) - rec.UBM.LogProb(x)
		}
		out[k] = llr / float64(len(frames))
	}
	return out
}

// Classify returns the arg-max language.
func (rec *Recognizer) Classify(frames [][]float64) int {
	s := rec.Score(frames)
	best := 0
	for k, v := range s {
		if v > s[best] {
			best = k
		}
	}
	return best
}
