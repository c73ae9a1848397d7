// Package prlm implements PRLM — Phone Recognition followed by Language
// Modeling (Zissman, the paper's reference [2]) — the classical
// phonotactic approach that vector space modeling (PPRVSM) superseded:
// instead of supervectors and SVMs, a smoothed phone N-gram language model
// is trained per target language on the decoded training transcriptions,
// and a test utterance is scored by each model's normalized log likelihood
// against a background model.
//
// The package exists as the historical baseline the paper's line of work
// builds on; the ablation bench compares PRLM against the SVM-based VSM on
// identical decoded phone streams, reproducing the classical finding that
// discriminative VSM training beats generative LM scoring.
package prlm

import (
	"fmt"

	"repro/internal/lm"
)

// System is a trained PRLM recognizer over one front-end's phone space.
type System struct {
	NumPhones  int
	Models     []*lm.Bigram
	Background *lm.Bigram
}

// Config controls training.
type Config struct {
	// Discount is the Kneser–Ney absolute discount.
	Discount float64
}

// DefaultConfig returns the standard smoothing setup.
func DefaultConfig() Config { return Config{Discount: 0.75} }

// Train fits one language model per language plus a pooled background
// model. seqsPerLang[k] holds language k's decoded phone strings.
func Train(numPhones int, seqsPerLang [][][]int, cfg Config) (*System, error) {
	if len(seqsPerLang) == 0 {
		return nil, fmt.Errorf("prlm: no languages")
	}
	s := &System{NumPhones: numPhones, Models: make([]*lm.Bigram, len(seqsPerLang))}
	var pooled [][]int
	for k, seqs := range seqsPerLang {
		if len(seqs) == 0 {
			return nil, fmt.Errorf("prlm: language %d has no training sequences", k)
		}
		s.Models[k] = lm.TrainKneserNey(numPhones, seqs, cfg.Discount)
		pooled = append(pooled, seqs...)
	}
	s.Background = lm.TrainKneserNey(numPhones, pooled, cfg.Discount)
	return s, nil
}

// Score returns per-language detection scores for a decoded phone string:
// the per-phone log-likelihood ratio of each language model against the
// background model (length-normalized so durations are comparable).
func (s *System) Score(seq []int) []float64 {
	out := make([]float64, len(s.Models))
	if len(seq) == 0 {
		return out
	}
	bg := logLik(s.Background, seq)
	for k, m := range s.Models {
		out[k] = (logLik(m, seq) - bg) / float64(len(seq))
	}
	return out
}

func logLik(m *lm.Bigram, seq []int) float64 {
	var ll float64
	for i, p := range seq {
		if i == 0 {
			ll += m.LogInit(p)
		} else {
			ll += m.LogProb(seq[i-1], p)
		}
	}
	return ll
}
