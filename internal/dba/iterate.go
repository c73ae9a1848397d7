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
	// Round, when non-nil, produces each round: it returns a state kept
	// from an earlier run, or calls run, which computes the round. nil
	// means run every round. A kept round goes through the same post-round
	// transitions (model swap, stability check, recalibrated vote scores)
	// as a computed one, so a resumed run is bit-identical to an
	// uninterrupted one.
	Round func(round int, run func() *RoundState) *RoundState
}

// RoundState is one completed round: its record and the models it
// retrained.
type RoundState struct {
	Result RoundResult
	Models []*svm.OneVsRest
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
		run := func() *RoundState {
			roundSp := iterSp.StartChild(fmt.Sprintf("dba.round-%d", round))
			roundCfg := cfg.Config
			roundCfg.Span = roundSp
			o := Run(data, trainLabels, models, voteScores, roundCfg)
			roundSp.SetAttr("selected", float64(len(o.Selected)))
			roundSp.End()
			obs.Inc("dba.rounds")
			return &RoundState{Result: RoundResult{Round: round, Selected: o.Selected, Scores: o.Scores}, Models: o.Retrained}
		}
		var st *RoundState
		if cfg.Round != nil {
			st = cfg.Round(round, run)
		} else {
			st = run()
		}
		rr := &st.Result
		// The post-round transitions, the same for a kept and a computed
		// round, so a resumed run is bit-identical to an uninterrupted one.
		out.Rounds = append(out.Rounds, *rr)
		models = st.Models
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
