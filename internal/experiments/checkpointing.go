package experiments

import (
	"fmt"
	"log"

	"repro/internal/checkpoint"
	"repro/internal/corpus"
	"repro/internal/dba"
	"repro/internal/obs"
	"repro/internal/svm"
	"repro/internal/vsm"
)

// Checkpointer wires a checkpoint.Store into the pipeline's phase
// boundaries. All methods are nil-receiver-safe, so pipeline code calls
// them unconditionally; a nil Checkpointer (or nil Store) is a no-op and
// the run behaves exactly as before checkpointing existed.
//
// Load failures are never fatal: a missing, corrupt, or shape-mismatched
// entry logs, bumps checkpoint.recompute, and the phase recomputes from
// scratch. Save failures (I/O errors) log and bump checkpoint.save_failed
// without stopping the run — a checkpoint is an optimization, not a
// dependency. Injected crashes (panic-kind faults at the checkpoint.save
// sites) do propagate, which is how the kill-and-resume tests simulate
// dying mid-save.
type Checkpointer struct {
	Store *checkpoint.Store
}

func (c *Checkpointer) enabled() bool { return c != nil && c.Store != nil }

// load restores key into v, reporting whether v now holds a verified
// checkpoint. Any failure is logged and counted, never propagated.
func (c *Checkpointer) load(key string, v any) bool {
	if !c.enabled() || !c.Store.Has(key) {
		return false
	}
	if err := c.Store.Load(key, v); err != nil {
		log.Printf("experiments: checkpoint %q unusable, recomputing: %v", key, err)
		obs.Inc("checkpoint.recompute")
		return false
	}
	return true
}

// save persists v under key, logging (not failing) on I/O errors.
func (c *Checkpointer) save(key string, v any) {
	if !c.enabled() {
		return
	}
	if err := c.Store.Save(key, v); err != nil {
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

// iterRoundSnap checkpoints one completed boosting round of the
// iterative-DBA extension.
type iterRoundSnap struct {
	Result dba.RoundResult
	Models []*svm.OneVsRest
}

// roundCheckpoint adapts the Checkpointer to dba.RoundCheckpoint for one
// (threshold, method) iterative run; nil when checkpointing is off.
func (c *Checkpointer) roundCheckpoint(v int, method dba.Method) dba.RoundCheckpoint {
	if !c.enabled() {
		return nil
	}
	return &iterCheckpoint{ck: c, prefix: fmt.Sprintf("dba-iter-v%d-%s", v, method)}
}

type iterCheckpoint struct {
	ck     *Checkpointer
	prefix string
}

func (ic *iterCheckpoint) key(round int) string {
	return fmt.Sprintf("%s-round-%03d", ic.prefix, round)
}

func (ic *iterCheckpoint) LoadRound(round int) (*dba.RoundResult, []*svm.OneVsRest, bool) {
	var snap iterRoundSnap
	if !ic.ck.load(ic.key(round), &snap) {
		return nil, nil, false
	}
	if snap.Result.Round != round || len(snap.Models) == 0 {
		log.Printf("experiments: checkpoint %q is not round %d, recomputing", ic.key(round), round)
		obs.Inc("checkpoint.recompute")
		return nil, nil, false
	}
	return &snap.Result, snap.Models, true
}

func (ic *iterCheckpoint) SaveRound(round int, rr *dba.RoundResult, models []*svm.OneVsRest) {
	ic.ck.save(ic.key(round), &iterRoundSnap{Result: *rr, Models: models})
}

// featuresCover reports whether a restored feature cache holds a
// supervector for every utterance of every split — the shape check that
// guards against resuming a checkpoint from a differently-sized corpus
// that happens to share metadata.
func featuresCover(f *vsm.Features, c *corpus.Corpus) bool {
	splits := []*corpus.Split{c.Train}
	for _, dur := range corpus.Durations {
		splits = append(splits, c.Dev[dur], c.Test[dur])
	}
	for _, s := range splits {
		for _, it := range s.Items {
			if !f.Has(it.ID) {
				return false
			}
		}
	}
	return true
}
