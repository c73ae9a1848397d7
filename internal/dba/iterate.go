package dba

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/svm"
)

// IterativeConfig controls multi-round DBA. The paper runs a single
// boosting pass (steps a–f); its step f ("repeat steps a–c with the
// updated training database") invites iteration, which we implement as an
// extension: each round re-votes with the retrained subsystems, reselects
// T_DBA, and retrains again. Rounds stop early when the selection
// stabilizes (the fixed point of the self-training operator).
type IterativeConfig struct {
	Config
	// Rounds caps the number of boosting rounds (≥ 1; 1 reproduces the
	// paper exactly).
	Rounds int
	// StopOnStable terminates when a round selects the same utterance set
	// with the same labels as the previous one.
	StopOnStable bool
	// Checkpoint, when non-nil, persists each completed round and lets a
	// resumed run skip straight past rounds it already finished. A loaded
	// round goes through the same post-round transitions (model swap,
	// stability check, recalibrated vote scores) as a computed one, so a
	// resumed run is bit-identical to an uninterrupted one.
	Checkpoint RoundCheckpoint
}

// RoundCheckpoint is the hook RunIterative uses to persist round
// boundaries. LoadRound returns the stored result and retrained models
// for a round, or ok=false when the round must be computed. SaveRound is
// called after each computed round; implementations must not fail the
// run (log and continue).
type RoundCheckpoint interface {
	LoadRound(round int) (rr *RoundResult, models []*svm.OneVsRest, ok bool)
	SaveRound(round int, rr *RoundResult, models []*svm.OneVsRest)
}

// RoundResult records one boosting round.
type RoundResult struct {
	Round    int
	Selected []Hypothesis
	// Scores[q][j][k]: the round's retrained models' raw test scores.
	Scores [][][]float64
}

// IterativeOutcome is the result of RunIterative.
type IterativeOutcome struct {
	Rounds []RoundResult
	// Final models after the last round.
	Models []*svm.OneVsRest
	// Stable reports whether the selection reached a fixed point.
	Stable bool
}

// RunIterative performs multi-round DBA. Round 1 votes with the provided
// baseline scores (identical to Run); round r > 1 votes with round r−1's
// raw scores (Outcome.Scores, also after a round that selected nothing),
// calibrated by the caller-provided recalibrate hook (pass nil to vote on
// raw second-pass scores).
func RunIterative(data []*SubsystemData, trainLabels []int, baseline []*svm.OneVsRest,
	baselineScores [][][]float64, cfg IterativeConfig,
	recalibrate func(models []*svm.OneVsRest, scores [][][]float64) [][][]float64) *IterativeOutcome {

	if cfg.Rounds < 1 {
		cfg.Rounds = 1
	}
	iterSp := obs.ChildOf(cfg.Span, "dba.iterate")
	defer iterSp.End()
	iterSp.SetLabel("method", cfg.Method.String())
	iterSp.SetAttr("max_rounds", float64(cfg.Rounds))

	out := &IterativeOutcome{}
	models := baseline
	voteScores := baselineScores
	var prev []Hypothesis
	for round := 1; round <= cfg.Rounds; round++ {
		var rr *RoundResult
		var roundModels []*svm.OneVsRest
		loaded := false
		if cfg.Checkpoint != nil {
			rr, roundModels, loaded = cfg.Checkpoint.LoadRound(round)
		}
		if loaded {
			obs.Inc("dba.rounds.resumed")
		} else {
			roundSp := iterSp.StartChild(fmt.Sprintf("dba.round-%d", round))
			roundCfg := cfg.Config
			roundCfg.Span = roundSp
			o := Run(data, trainLabels, models, voteScores, roundCfg)
			roundSp.SetAttr("selected", float64(len(o.Selected)))
			roundSp.End()
			obs.Inc("dba.rounds")
			rr = &RoundResult{Round: round, Selected: o.Selected, Scores: o.Scores}
			roundModels = o.Retrained
			if cfg.Checkpoint != nil {
				cfg.Checkpoint.SaveRound(round, rr, roundModels)
			}
		}
		// The post-round transitions, the same for a loaded and a computed
		// round, so a resumed run is bit-identical to an uninterrupted one.
		out.Rounds = append(out.Rounds, *rr)
		models = roundModels
		if cfg.StopOnStable && sameSelection(prev, rr.Selected) {
			out.Stable = true
			break
		}
		prev = rr.Selected
		if round < cfg.Rounds {
			voteScores = rr.Scores
			if recalibrate != nil {
				voteScores = recalibrate(models, rr.Scores)
			}
		}
	}
	out.Models = models
	iterSp.SetAttr("rounds", float64(len(out.Rounds)))
	return out
}

func sameSelection(a, b []Hypothesis) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[[2]int]bool, len(a))
	for _, h := range a {
		seen[[2]int{h.Utt, h.Label}] = true
	}
	for _, h := range b {
		if !seen[[2]int{h.Utt, h.Label}] {
			return false
		}
	}
	return true
}
