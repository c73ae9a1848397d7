package experiments

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/dba"
	"repro/internal/svm"
)

// IterativeDBA runs the multi-round DBA extension (see dba.RunIterative)
// with per-round vote recalibration: after each round the retrained
// subsystems are rescored on the dev set and fresh per-duration vote
// thresholds are derived, exactly as the first round's calibration was.
func (p *Pipeline) IterativeDBA(v int, method dba.Method, rounds int) *dba.IterativeOutcome {
	cfg := dba.IterativeConfig{
		Config: dba.Config{
			Threshold:  v,
			Method:     method,
			NumLangs:   NumLangs,
			SVMOptions: p.SVMOptions,
		},
		Rounds:       rounds,
		StopOnStable: true,
	}
	cfg.Round = func(round int, run func() *dba.RoundState) *dba.RoundState {
		key := fmt.Sprintf("dba-iter-v%d-%s-round-%03d", v, method, round)
		st := new(dba.RoundState)
		if restore(p.ck, key, st, func() error {
			if st.Result.Round != round {
				return fmt.Errorf("holds round %d", st.Result.Round)
			}
			return p.fitModels(st.Models)
		}) {
			return st
		}
		st = run()
		save(p.ck, key, st)
		return st
	}
	recal := func(models []*svm.OneVsRest, scores [][][]float64) [][][]float64 {
		return p.voteScores(scores, p.DevScores(models), VoteCalibrationFA)
	}
	return dba.RunIterative(p.Data, p.TrainLabels, p.Baseline, p.VoteScores, cfg, recal)
}

// IterativeReport summarizes an iterative run: per-round selection size,
// label error, and mean EER across subsystems and durations.
func (p *Pipeline) IterativeReport(out *dba.IterativeOutcome) string {
	var b strings.Builder
	b.WriteString("Iterated DBA (extension — the paper runs one round):\n")
	b.WriteString("round  |T_DBA|  label-err%   mean EER%\n")
	for _, rr := range out.Rounds {
		var sum float64
		var n int
		for q := range rr.Scores {
			for _, dur := range corpus.Durations {
				eer, _ := Eval(rr.Scores[q], p.TestLabels, p.TestIdx[dur])
				sum += eer
				n++
			}
		}
		fmt.Fprintf(&b, "%5d  %7d  %9.2f  %9.2f\n",
			rr.Round, len(rr.Selected),
			dba.SelectionErrorRate(rr.Selected, p.TestLabels)*100,
			sum/float64(n))
	}
	if out.Stable {
		b.WriteString("selection reached a fixed point\n")
	}
	return b.String()
}

// SelectionStats reports T_DBA size and label error for a vote-calibration
// false-alarm operating point — the FA-sweep ablation: the paper's Table 1
// trade-off moves along this axis too.
type SelectionStats struct {
	FA           float64
	V            int
	Size         int
	ErrorRatePct float64
}

// SelectionStatsAtFA recomputes vote thresholds at an arbitrary dev
// false-alarm rate (reusing the cached baseline scores; no retraining).
func (p *Pipeline) SelectionStatsAtFA(fa float64, v int) SelectionStats {
	sel := dba.Select(dba.CountVotes(p.voteScores(p.BaselineScores, p.BaselineDev, fa)), v)
	return SelectionStats{
		FA:           fa,
		V:            v,
		Size:         len(sel),
		ErrorRatePct: dba.SelectionErrorRate(sel, p.TestLabels) * 100,
	}
}

// SubsystemVoteCounts returns M_n of Eq. 15: the number of test utterances
// for which subsystem n's Eq. 13 vote criterion fired on the calibrated
// baseline scores.
func (p *Pipeline) SubsystemVoteCounts() []int {
	counts := make([]int, len(p.VoteScores))
	for q, mat := range p.VoteScores {
		for _, row := range mat {
			if dba.Vote(row) >= 0 {
				counts[q]++
			}
		}
	}
	return counts
}
