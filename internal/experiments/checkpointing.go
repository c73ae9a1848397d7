package experiments

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/checkpoint"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/svm"
	"repro/internal/vsm"
)

// restore is the one restore rule of every checkpointed phase — the six
// feature snapshots, the baseline models and scores, each DBA outcome,
// each iterated round, Table 4 — and save its one save rule. A nil store
// makes both no-ops, and the run behaves exactly as without
// checkpointing. No failure of either stops the run; only injected
// crashes (panic-kind faults at the checkpoint.save sites) propagate,
// which is how the kill-and-resume tests die mid-save.
//
// restore loads the entry for key into v and reports whether v now holds
// one this run can use. A key the store does not hold is a plain miss.
// Any other unusable entry — a load error, or a decoded value that fit
// rejects — is logged and counted once in checkpoint.recompute; a usable
// one is counted in checkpoint.restored.
func restore(s *checkpoint.Store, key string, v any, fit func() error) bool {
	if s == nil || !s.Has(key) {
		return false
	}
	err := s.Load(key, v)
	if err == nil {
		err = fit()
	}
	if err != nil {
		log.Printf("experiments: checkpoint %q unusable, recomputing: %v", key, err)
		obs.Inc("checkpoint.recompute")
		return false
	}
	obs.Inc("checkpoint.restored")
	return true
}

// save persists v under key. An I/O failure is logged and counted in
// checkpoint.save_failed, and the run continues.
func save(s *checkpoint.Store, key string, v any) {
	if s == nil {
		return
	}
	if err := s.Save(key, v); err != nil {
		log.Printf("experiments: checkpoint save %q failed (run continues): %v", key, err)
		obs.Inc("checkpoint.save_failed")
	}
}

// scoresSnap checkpoints the baseline scoring phase: raw test and dev
// score matrices. VoteScores are derived (calibration is deterministic
// arithmetic over these), so they are recomputed on resume rather than
// stored.
type scoresSnap struct {
	Test [][][]float64
	Dev  [][][]float64
}

// fitModels is the fit check of every restored model battery: one model
// per front-end.
func (p *Pipeline) fitModels(models []*svm.OneVsRest) error {
	if len(models) != len(p.FEs) {
		return fmt.Errorf("%d models for %d front-ends", len(models), len(p.FEs))
	}
	return nil
}

// fitScores checks restored baseline scores: test and dev matrices for
// every front-end.
func (p *Pipeline) fitScores(ss scoresSnap) error {
	if len(ss.Test) != len(p.FEs) || len(ss.Dev) != len(p.FEs) {
		return fmt.Errorf("%d test and %d dev score matrices for %d front-ends", len(ss.Test), len(ss.Dev), len(p.FEs))
	}
	return nil
}

// fitFeatures rebuilds a front-end's features from a restored snapshot
// and checks they fit this run: a supervector for every utterance of
// every split (a checkpoint of a differently-sized corpus can share the
// run's metadata), and the 1-best paths the cascade front-end keeps.
func fitFeatures(fe *frontend.FrontEnd, snap *vsm.FeaturesSnapshot, c *corpus.Corpus) (*vsm.Features, error) {
	f, err := vsm.RestoreFeatures(fe, snap)
	if err != nil {
		return nil, err
	}
	splits := []*corpus.Split{c.Train}
	for _, dur := range corpus.Durations {
		splits = append(splits, c.Dev[dur], c.Test[dur])
	}
	for _, s := range splits {
		for _, it := range s.Items {
			if !f.Has(it.ID) {
				return nil, fmt.Errorf("no supervector for utterance %d of this corpus", it.ID)
			}
		}
	}
	if fe.Name == CascadeFrontEnd && len(snap.BestPaths) == 0 {
		return nil, errors.New("no 1-best paths for the cascade front-end")
	}
	return f, nil
}
