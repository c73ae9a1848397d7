package adapt

import (
	"errors"
	"fmt"

	"repro/internal/dba"
	"repro/internal/persist"
	"repro/internal/sparse"
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
// buffered observations, threshold selection, and the offline pass's
// per-front-end retrain, dba.Retrain (M1: selected only; M2: selected ∪
// the sidecar's frozen training set). It calls Retrain rather than
// dba.Run: a candidate needs no rescored observations, and the daemon
// keeps no dba.* metrics. The returned bundle shares the serving bundle's
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

	cand := &persist.Bundle{
		Languages: append([]string(nil), serving.Languages...),
		FrontEnds: append([]persist.FrontEndModel(nil), serving.FrontEnds...),
		Fusion:    serving.Fusion,
		Cascade:   serving.Cascade,
	}
	data := make([]*dba.SubsystemData, len(set.FrontEnds))
	for q := range set.FrontEnds {
		sfe := &set.FrontEnds[q]
		test := make([]*sparse.Vector, len(obss))
		for j, o := range obss {
			test[j] = o.Vectors[q]
		}
		data[q] = &dba.SubsystemData{Name: sfe.Name, Dim: sfe.Dim, Train: sfe.Train, Test: test}
	}
	for q, ovr := range dba.Retrain(data, set.TrainLabels, sel, pol.Method, len(set.Languages), set.SVM) {
		cand.FrontEnds[q].OVR = ovr
	}
	if err := cand.Validate(); err != nil {
		return nil, stats, fmt.Errorf("adapt: candidate bundle: %w", err)
	}
	return cand, stats, nil
}
