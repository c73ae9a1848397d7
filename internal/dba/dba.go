// Package dba implements the paper's contribution: the Discriminative
// Boosting Algorithm for phonotactic language recognition (Section 3).
//
// Given Q baseline subsystems (one per front-end) trained one-versus-rest
// on the original training set Tr, DBA proceeds:
//
//  1. Score every test utterance with every subsystem's K language models,
//     producing score matrices F_q (Eq. 8–9).
//  2. Each subsystem casts at most one vote per utterance: it votes for
//     language k iff its score for k is positive AND its highest score
//     among all other languages is negative (Eq. 13) — a high-confidence,
//     unambiguous one-vs-rest decision.
//  3. Votes are tallied across subsystems (Eq. 10–12). A test utterance
//     whose top language collects at least V votes enters T_DBA with that
//     language as its hypothesized label.
//  4. New training sets are assembled (step e): DBA-M1 retrains on T_DBA
//     alone; DBA-M2 on T_DBA ∪ Tr. Every subsystem's VSM is retrained and
//     the test set rescored — reusing the cached supervectors, so the only
//     added cost is SVM training (the paper's Eq. 18–19).
//
// The package is deliberately independent of the decoding stack: it
// operates on supervectors and score matrices, so both the simulated and
// the acoustic front-ends drive it.
package dba

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// Method selects how the DBA training set is assembled (paper step e).
type Method int

// DBA variants: M1 uses only the selected test data; M2 appends it to the
// original training set.
const (
	M1 Method = iota
	M2
)

func (m Method) String() string {
	switch m {
	case M1:
		return "DBA-M1"
	case M2:
		return "DBA-M2"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Vote applies the Eq. 13 criterion to one subsystem's score row: it
// returns the voted language, or −1 when the row is not a high-confidence
// unambiguous decision (no positive score, several positive scores, or the
// runner-up non-target score is not negative).
func Vote(scores []float64) int {
	if len(scores) == 0 {
		return -1
	}
	best := 0
	for k, v := range scores {
		if v > scores[best] {
			best = k
		}
	}
	if scores[best] <= 0 {
		return -1
	}
	for k, v := range scores {
		if k != best && v >= 0 {
			return -1
		}
	}
	return best
}

// Calibrate shifts one subsystem's score row onto the vote scale: a copy
// of row with per-model thresholds shifts[k] subtracted, so that Vote's
// zero sits at each model's calibrated operating point. A row whose
// length differs from shifts (e.g. no shifts at all) is returned as is.
func Calibrate(row, shifts []float64) []float64 {
	if len(shifts) != len(row) {
		return row
	}
	out := make([]float64, len(row))
	for k, v := range row {
		out[k] = v - shifts[k]
	}
	return out
}

// CountVotes tallies the votes-counting matrix C_v (Eq. 10–12) from the Q
// subsystems' score matrices. scoreMats[q][j][k] is subsystem q's score
// for test utterance j against language k. The result is votes[j][k].
func CountVotes(scoreMats [][][]float64) [][]int {
	if len(scoreMats) == 0 {
		return nil
	}
	m := len(scoreMats[0])
	k := 0
	if m > 0 {
		k = len(scoreMats[0][0])
	}
	votes := make([][]int, m)
	for j := range votes {
		votes[j] = make([]int, k)
	}
	for _, f := range scoreMats {
		if len(f) != m {
			panic("dba: subsystems scored different test-set sizes")
		}
		for j, row := range f {
			if v := Vote(row); v >= 0 {
				votes[j][v]++
			}
		}
	}
	return votes
}

// Hypothesis is one selected test utterance with its voted label.
type Hypothesis struct {
	Utt   int // index into the test set
	Label int
	Votes int
}

// Select applies the threshold (paper step e): utterance j enters T_DBA
// with label k when c_jk ≥ threshold and k is the unique argmax of its
// vote row (ties are ambiguous and skipped).
func Select(votes [][]int, threshold int) []Hypothesis {
	var out []Hypothesis
	for j, row := range votes {
		best, bestV, tie := -1, 0, false
		for k, c := range row {
			switch {
			case c > bestV:
				best, bestV, tie = k, c, false
			case c == bestV && c > 0:
				tie = true
			}
		}
		if best >= 0 && !tie && bestV >= threshold {
			out = append(out, Hypothesis{Utt: j, Label: best, Votes: bestV})
		}
	}
	return out
}

// SubsystemData is the per-front-end input to a DBA run: cached train and
// test supervectors in that front-end's feature space.
type SubsystemData struct {
	Name string
	Dim  int
	// Train[i] pairs with the shared TrainLabels; Test[j] with the shared
	// test order that score matrices and votes use.
	Train []*sparse.Vector
	Test  []*sparse.Vector
}

// Config parameterizes a DBA run.
type Config struct {
	Threshold  int
	Method     Method
	NumLangs   int
	SVMOptions svm.Options
	// Span, when non-nil, nests the run's trace under a caller span
	// (RunIterative's per-round spans use this); nil makes the run a trace
	// root of its own.
	Span *obs.Span
}

// Outcome is the result of one DBA pass.
type Outcome struct {
	// Selected is T_DBA (test indices + hypothesized labels).
	Selected []Hypothesis
	// Retrained[q]: second-pass models per subsystem (the baseline models
	// when nothing was selected).
	Retrained []*svm.OneVsRest
	// Scores[q][j][k]: Retrained's raw test score matrices.
	Scores [][][]float64
}

// TrainBaseline trains the Q baseline subsystems on the original training
// set (paper steps a–b).
func TrainBaseline(data []*SubsystemData, trainLabels []int, numLangs int, opt svm.Options) []*svm.OneVsRest {
	models := make([]*svm.OneVsRest, len(data))
	for q, d := range data {
		qopt := opt
		qopt.Seed = opt.Seed + uint64(q)*104729
		models[q] = svm.TrainOVR(d.Train, trainLabels, numLangs, d.Dim, qopt)
	}
	return models
}

// ScoreAll computes every subsystem's test score matrix (paper step c).
func ScoreAll(models []*svm.OneVsRest, data []*SubsystemData) [][][]float64 {
	out := make([][][]float64, len(models))
	for q, mdl := range models {
		// ScoreAll runs the class-grouped kernel over the "score" pool
		// with a single flat arena per subsystem.
		out[q] = mdl.ScoreAll(data[q].Test)
	}
	return out
}

// BuildTrainingSet assembles the retraining data for one subsystem from
// the selection (paper step e): the selected test vectors with their
// hypothesized labels, plus the original training set under DBA-M2.
func BuildTrainingSet(d *SubsystemData, trainLabels []int, sel []Hypothesis, method Method) (xs []*sparse.Vector, ys []int) {
	xs = make([]*sparse.Vector, 0, len(sel)+len(d.Train))
	ys = make([]int, 0, len(sel)+len(d.Train))
	for _, h := range sel {
		xs = append(xs, d.Test[h.Utt])
		ys = append(ys, h.Label)
	}
	if method == M2 {
		xs = append(xs, d.Train...)
		ys = append(ys, trainLabels...)
	}
	return xs, ys
}

// Retrain trains every subsystem's second-pass models on the selection
// (paper step e): one one-vs-rest battery per subsystem on
// BuildTrainingSet's data, seeded per subsystem from opt.Seed. The offline
// pass (Run) and online self-training both retrain through it, so the
// same selection over the same data yields the same models.
func Retrain(data []*SubsystemData, trainLabels []int, sel []Hypothesis, method Method, numLangs int, opt svm.Options) []*svm.OneVsRest {
	models := make([]*svm.OneVsRest, len(data))
	for q, d := range data {
		xs, ys := BuildTrainingSet(d, trainLabels, sel, method)
		qopt := opt
		qopt.Seed = opt.Seed + 7_000_003 + uint64(q)*104729
		models[q] = svm.TrainOVR(xs, ys, numLangs, d.Dim, qopt)
	}
	return models
}

// Run executes the full DBA pass given already-trained baseline models and
// the score matrices to vote on (so sweeps over V and Method reuse the
// baseline work, as the algorithm itself does). When nothing is selected
// DBA degenerates to the baseline (M2) or to an untrainable set (M1); the
// outcome then keeps the baseline models in both cases, with their own
// raw scores, so downstream scoring stays well-defined.
func Run(data []*SubsystemData, trainLabels []int, baseline []*svm.OneVsRest,
	voteScores [][][]float64, cfg Config) *Outcome {

	sp := obs.ChildOf(cfg.Span, "dba.run")
	defer sp.End()
	sp.SetLabel("method", cfg.Method.String())
	sp.SetAttr("threshold", float64(cfg.Threshold))

	voteSp := sp.StartChild("vote")
	votes := CountVotes(voteScores)
	sel := Select(votes, cfg.Threshold)
	voteSp.SetAttr("selected", float64(len(sel)))
	voteSp.End()
	// Accept/reject accounting: a candidate is one test utterance per pass.
	if m := len(votes); m > 0 {
		obs.Add("dba.select.accepted", int64(len(sel)))
		obs.Add("dba.select.rejected", int64(m-len(sel)))
	}
	sp.SetAttr("selected", float64(len(sel)))

	o := &Outcome{Selected: sel, Retrained: baseline}
	if len(sel) > 0 {
		retrainSp := sp.StartChild("retrain")
		o.Retrained = Retrain(data, trainLabels, sel, cfg.Method, cfg.NumLangs, cfg.SVMOptions)
		retrainSp.SetAttr("subsystems", float64(len(data)))
		retrainSp.End()
	}
	rescoreSp := sp.StartChild("rescore")
	o.Scores = ScoreAll(o.Retrained, data)
	rescoreSp.End()
	return o
}

// SelectionErrorRate measures the label error of T_DBA against ground
// truth (Table 1's "error rate" column).
func SelectionErrorRate(sel []Hypothesis, trueLabels []int) float64 {
	if len(sel) == 0 {
		return 0
	}
	wrong := 0
	for _, h := range sel {
		if trueLabels[h.Utt] != h.Label {
			wrong++
		}
	}
	return float64(wrong) / float64(len(sel))
}
