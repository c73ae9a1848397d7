package adapt

import (
	"errors"
	"fmt"

	"repro/internal/dba"
	"repro/internal/persist"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// ErrNoSelection reports a training pass where Eq. 13 voting selected no
// utterance — nothing to adapt on, the pass is skipped (not an error of
// the serving path).
var ErrNoSelection = errors.New("adapt: voting selected no utterances")

// TrainStats summarizes one candidate build for status surfaces.
type TrainStats struct {
	Observed int `json:"observed"`
	Selected int `json:"selected"`
	Votes    int `json:"votes"`
}

// voteMatrices arranges the buffered observations' served rows as the
// [q][j][k] score matrices dba.CountVotes consumes, applying the
// sidecar's per-front-end vote calibration (raw one-vs-rest rows are
// biased negative by the 1-vs-22 class imbalance; the offline pipeline
// calibrates the same way before voting).
func voteMatrices(set *Set, obss []Observation) [][][]float64 {
	numFE := len(set.FrontEnds)
	mats := make([][][]float64, numFE)
	for q := 0; q < numFE; q++ {
		shifts := set.FrontEnds[q].VoteShifts
		mats[q] = make([][]float64, len(obss))
		for j, o := range obss {
			mats[q][j] = dba.Calibrate(o.Scores[q], shifts)
		}
	}
	return mats
}

// buildCandidate runs one self-training pass: Eq. 13 voting over the
// buffered observations, threshold selection, and a per-front-end
// one-vs-rest retrain (M1: selected only; M2: selected ∪ the sidecar's
// frozen training set). The returned bundle shares the serving bundle's
// fusion backend and cascade model — only the weight batteries change —
// so its decision scale is comparable gate-side.
func buildCandidate(set *Set, serving *persist.Bundle, obss []Observation, pol Policy) (*persist.Bundle, TrainStats, error) {
	stats := TrainStats{Observed: len(obss), Votes: pol.Votes}
	if len(obss) == 0 {
		return nil, stats, ErrNoSelection
	}
	votes := dba.CountVotes(voteMatrices(set, obss))
	sel := dba.Select(votes, pol.Votes)
	stats.Selected = len(sel)
	if len(sel) == 0 {
		return nil, stats, ErrNoSelection
	}

	numLangs := len(set.Languages)
	cand := &persist.Bundle{
		Languages: append([]string(nil), serving.Languages...),
		FrontEnds: append([]persist.FrontEndModel(nil), serving.FrontEnds...),
		Fusion:    serving.Fusion,
		Cascade:   serving.Cascade,
	}
	for q := range cand.FrontEnds {
		sfe := &set.FrontEnds[q]
		test := make([]*sparse.Vector, len(obss))
		for j, o := range obss {
			test[j] = o.Vectors[q]
		}
		d := &dba.SubsystemData{Name: sfe.Name, Dim: sfe.Dim, Train: sfe.Train, Test: test}
		xs, ys := dba.BuildTrainingSet(d, set.TrainLabels, sel, pol.Method)
		// The same per-front-end seed derivation dba.Run uses, so a
		// candidate trained on the full frozen set under M2 with the same
		// selection reproduces the offline second-pass models.
		qopt := set.SVM
		qopt.Seed = set.SVM.Seed + 7_000_003 + uint64(q)*104729
		ovr := svm.TrainOVR(xs, ys, numLangs, d.Dim, qopt)
		cand.FrontEnds[q].OVR = ovr
	}
	if err := cand.Validate(); err != nil {
		return nil, stats, fmt.Errorf("adapt: candidate bundle: %w", err)
	}
	return cand, stats, nil
}
