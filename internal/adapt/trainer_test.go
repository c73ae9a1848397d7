package adapt

import (
	"reflect"
	"testing"

	"repro/internal/dba"
	"repro/internal/svm"
)

// TestCandidateMatchesOfflinePass ties online self-training to the offline
// DBA pass: with no vote calibration, observations whose vectors and rows
// are a dba.Run input yield a candidate whose batteries are Run's
// retrained models, under both methods.
func TestCandidateMatchesOfflinePass(t *testing.T) {
	serving, set := buildFixture(17)
	data := make([]*dba.SubsystemData, len(set.FrontEnds))
	baseline := make([]*svm.OneVsRest, len(set.FrontEnds))
	rows := make([][][]float64, len(set.FrontEnds))
	for q := range set.FrontEnds {
		sfe := &set.FrontEnds[q]
		sfe.VoteShifts = nil // dba.Calibrate passes rows through
		data[q] = &dba.SubsystemData{Name: sfe.Name, Dim: sfe.Dim, Train: sfe.Train, Test: sfe.Holdout}
		baseline[q] = serving.FrontEnds[q].OVR
		rows[q] = baseline[q].ScoreAll(sfe.Holdout)
	}
	obss := make([]Observation, len(set.HoldoutLabels))
	for j := range obss {
		for q := range set.FrontEnds {
			obss[j].Vectors = append(obss[j].Vectors, data[q].Test[j])
			obss[j].Scores = append(obss[j].Scores, rows[q][j])
		}
	}

	for _, method := range []dba.Method{dba.M1, dba.M2} {
		pol := DefaultPolicy()
		pol.Votes = 1
		pol.Method = method
		cand, stats, err := buildCandidate(set, serving, obss, pol)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		want := dba.Run(data, set.TrainLabels, baseline, rows, dba.Config{
			Threshold:  pol.Votes,
			Method:     method,
			NumLangs:   len(set.Languages),
			SVMOptions: set.SVM,
		})
		if stats.Selected == 0 || stats.Selected != len(want.Selected) {
			t.Fatalf("%v: candidate selected %d, offline pass %d", method, stats.Selected, len(want.Selected))
		}
		for q := range want.Retrained {
			if !reflect.DeepEqual(cand.FrontEnds[q].OVR, want.Retrained[q]) {
				t.Fatalf("%v: front-end %d's candidate battery differs from the offline pass's", method, q)
			}
		}
	}
}
