package dba

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
)

func TestVoteCriterion(t *testing.T) {
	cases := []struct {
		scores []float64
		want   int
	}{
		{[]float64{0.8, -0.5, -0.3}, 0},   // confident
		{[]float64{-0.1, -0.5, -0.3}, -1}, // no positive score
		{[]float64{0.8, 0.2, -0.3}, -1},   // second language also positive
		{[]float64{0.8, 0.0, -0.3}, -1},   // runner-up not strictly negative
		{[]float64{-0.2, 1.5, -0.9}, 1},
		{nil, -1},
	}
	for i, c := range cases {
		if got := Vote(c.scores); got != c.want {
			t.Errorf("case %d: Vote(%v) = %d, want %d", i, c.scores, got, c.want)
		}
	}
}

func TestMethodString(t *testing.T) {
	if M1.String() != "DBA-M1" || M2.String() != "DBA-M2" {
		t.Fatal("Method.String wrong")
	}
}

func TestCountVotes(t *testing.T) {
	// 3 subsystems, 2 utterances, 3 languages.
	f := func(rows ...[]float64) [][]float64 { return rows }
	mats := [][][]float64{
		f([]float64{1, -1, -1}, []float64{-1, 1, -1}),  // votes: u0→0, u1→1
		f([]float64{1, -1, -1}, []float64{-1, -1, -1}), // votes: u0→0, u1→none
		f([]float64{1, 1, -1}, []float64{-1, 1, -1}),   // votes: u0→none, u1→1
	}
	votes := CountVotes(mats)
	if votes[0][0] != 2 || votes[0][1] != 0 {
		t.Fatalf("votes[0] = %v", votes[0])
	}
	if votes[1][1] != 2 {
		t.Fatalf("votes[1] = %v", votes[1])
	}
}

func TestSelect(t *testing.T) {
	votes := [][]int{
		{3, 0, 0}, // selected at V≤3
		{1, 0, 0}, // only at V=1
		{0, 0, 0}, // never
		{2, 2, 0}, // tie → never
	}
	sel3 := Select(votes, 3)
	if len(sel3) != 1 || sel3[0].Utt != 0 || sel3[0].Label != 0 || sel3[0].Votes != 3 {
		t.Fatalf("Select V=3: %+v", sel3)
	}
	sel1 := Select(votes, 1)
	if len(sel1) != 2 {
		t.Fatalf("Select V=1 picked %d", len(sel1))
	}
	if len(Select(votes, 4)) != 0 {
		t.Fatal("Select V=4 should be empty")
	}
}

func TestSelectMonotoneInThreshold(t *testing.T) {
	r := rng.New(1)
	votes := make([][]int, 200)
	for j := range votes {
		row := make([]int, 5)
		row[r.Intn(5)] = r.Intn(7)
		votes[j] = row
	}
	prev := len(Select(votes, 1))
	for v := 2; v <= 6; v++ {
		cur := len(Select(votes, v))
		if cur > prev {
			t.Fatalf("selection grew from V=%d (%d) to V=%d (%d)", v-1, prev, v, cur)
		}
		prev = cur
	}
}

func TestSelectionErrorRate(t *testing.T) {
	sel := []Hypothesis{{Utt: 0, Label: 1}, {Utt: 1, Label: 2}, {Utt: 2, Label: 0}}
	truth := []int{1, 2, 1}
	if got := SelectionErrorRate(sel, truth); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("error rate = %v", got)
	}
	if SelectionErrorRate(nil, truth) != 0 {
		t.Fatal("empty selection should have zero error")
	}
}

// synthData builds a small synthetic 3-language problem over 2 subsystems
// where test data is slightly shifted (domain mismatch) — enough structure
// to exercise the full Run pipeline.
func synthData(r *rng.RNG, nTrainPer, nTestPer, numLangs int) (data []*SubsystemData, trainLabels, testLabels []int) {
	dim := 20
	mkVec := func(lang, sub int, shift float64) *sparse.Vector {
		x := make([]float64, dim)
		for d := 0; d < dim; d++ {
			x[d] = 0.2 * r.Norm()
		}
		// Language signature dims differ per subsystem.
		base := (lang*3 + sub*7) % (dim - 3)
		x[base] += 1.5 + shift
		x[base+1] += 1.0
		return sparse.FromDense(x)
	}
	for sub := 0; sub < 2; sub++ {
		d := &SubsystemData{Name: "S", Dim: dim}
		data = append(data, d)
	}
	for lang := 0; lang < numLangs; lang++ {
		for i := 0; i < nTrainPer; i++ {
			for sub := 0; sub < 2; sub++ {
				data[sub].Train = append(data[sub].Train, mkVec(lang, sub, 0))
			}
			trainLabels = append(trainLabels, lang)
		}
	}
	for lang := 0; lang < numLangs; lang++ {
		for i := 0; i < nTestPer; i++ {
			for sub := 0; sub < 2; sub++ {
				data[sub].Test = append(data[sub].Test, mkVec(lang, sub, -0.4))
			}
			testLabels = append(testLabels, lang)
		}
	}
	return data, trainLabels, testLabels
}

func TestRunEndToEnd(t *testing.T) {
	r := rng.New(2)
	data, trainLabels, testLabels := synthData(r, 20, 15, 3)
	opt := svm.DefaultOptions()
	baseline := TrainBaseline(data, trainLabels, 3, opt)
	baseScores := ScoreAll(baseline, data)

	cfg := Config{Threshold: 2, Method: M2, NumLangs: 3, SVMOptions: opt}
	o := Run(data, trainLabels, baseline, baseScores, cfg)

	if len(o.Selected) == 0 {
		t.Fatal("nothing selected at V=2 on separable data")
	}
	// Selection labels should be mostly right.
	if err := SelectionErrorRate(o.Selected, testLabels); err > 0.2 {
		t.Fatalf("selection error rate %v", err)
	}
	// Second-pass accuracy must not collapse.
	correct := 0
	for j, row := range o.Scores[0] {
		best := 0
		for k, v := range row {
			if v > row[best] {
				best = k
			}
		}
		if best == testLabels[j] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(testLabels))
	if acc < 0.8 {
		t.Fatalf("post-DBA accuracy %v", acc)
	}
}

func TestRunEmptySelectionFallsBack(t *testing.T) {
	r := rng.New(3)
	data, trainLabels, _ := synthData(r, 10, 5, 3)
	opt := svm.DefaultOptions()
	baseline := TrainBaseline(data, trainLabels, 3, opt)
	baseScores := ScoreAll(baseline, data)
	cfg := Config{Threshold: 99, Method: M1, NumLangs: 3, SVMOptions: opt}
	o := Run(data, trainLabels, baseline, baseScores, cfg)
	if len(o.Selected) != 0 {
		t.Fatal("threshold 99 selected something")
	}
	for q := range o.Retrained {
		if o.Retrained[q] != baseline[q] {
			t.Fatal("empty selection should fall back to baseline models")
		}
	}

	// A vote input on another scale (a calibrated copy) selects nothing
	// at any threshold; the outcome still carries the baseline's raw
	// scores, not the input.
	cfg.Threshold = 1
	o = Run(data, trainLabels, baseline, shiftScores(baseScores, -100), cfg)
	if len(o.Selected) != 0 {
		t.Fatal("all-negative vote input selected something")
	}
	scoresEqual(t, o.Scores, baseScores)
}

// shiftScores returns a copy of score matrices with d added to every score.
func shiftScores(mats [][][]float64, d float64) [][][]float64 {
	out := make([][][]float64, len(mats))
	for q, mat := range mats {
		out[q] = make([][]float64, len(mat))
		for j, row := range mat {
			out[q][j] = make([]float64, len(row))
			for k, v := range row {
				out[q][j][k] = v + d
			}
		}
	}
	return out
}

func TestBuildTrainingSetMethods(t *testing.T) {
	d := &SubsystemData{
		Dim:   2,
		Train: []*sparse.Vector{sparse.FromDense([]float64{1, 0})},
		Test: []*sparse.Vector{
			sparse.FromDense([]float64{0, 1}),
			sparse.FromDense([]float64{1, 1}),
		},
	}
	sel := []Hypothesis{{Utt: 1, Label: 4}}
	xs1, ys1 := BuildTrainingSet(d, []int{7}, sel, M1)
	if len(xs1) != 1 || ys1[0] != 4 || xs1[0] != d.Test[1] {
		t.Fatalf("M1 set: %d items, labels %v", len(xs1), ys1)
	}
	xs2, ys2 := BuildTrainingSet(d, []int{7}, sel, M2)
	if len(xs2) != 2 || ys2[0] != 4 || ys2[1] != 7 {
		t.Fatalf("M2 set: %d items, labels %v", len(xs2), ys2)
	}
}

func TestM1UsesOnlyTestData(t *testing.T) {
	r := rng.New(4)
	data, trainLabels, _ := synthData(r, 10, 20, 3)
	opt := svm.DefaultOptions()
	baseline := TrainBaseline(data, trainLabels, 3, opt)
	baseScores := ScoreAll(baseline, data)
	o := Run(data, trainLabels, baseline, baseScores,
		Config{Threshold: 1, Method: M1, NumLangs: 3, SVMOptions: opt})
	// M1 must produce genuinely retrained models, not the baseline.
	if len(o.Selected) == 0 {
		t.Skip("nothing selected; cannot compare")
	}
	for q := range o.Retrained {
		if o.Retrained[q] == baseline[q] {
			t.Fatal("M1 returned baseline model despite selection")
		}
	}
}

func TestVotesBounded(t *testing.T) {
	// Σ_k votes[j][k] ≤ Q: each subsystem casts at most one vote.
	r := rng.New(5)
	q := 4
	mats := make([][][]float64, q)
	for s := range mats {
		mats[s] = make([][]float64, 50)
		for j := range mats[s] {
			row := make([]float64, 6)
			for k := range row {
				row[k] = r.Norm()
			}
			mats[s][j] = row
		}
	}
	votes := CountVotes(mats)
	for j, row := range votes {
		total := 0
		for _, c := range row {
			total += c
		}
		if total > q {
			t.Fatalf("utterance %d has %d votes from %d subsystems", j, total, q)
		}
	}
}
