package dba

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/svm"
)

func TestRunIterativeOneRoundMatchesRun(t *testing.T) {
	r := rng.New(1)
	data, trainLabels, _ := synthData(r, 15, 12, 3)
	opt := svm.DefaultOptions()
	baseline := TrainBaseline(data, trainLabels, 3, opt)
	baseScores := ScoreAll(baseline, data)
	cfg := Config{Threshold: 1, Method: M2, NumLangs: 3, SVMOptions: opt}

	single := Run(data, trainLabels, baseline, baseScores, cfg)
	iter := RunIterative(data, trainLabels, baseline, baseScores,
		IterativeConfig{Config: cfg, Rounds: 1}, nil)

	if len(iter.Rounds) != 1 {
		t.Fatalf("%d rounds", len(iter.Rounds))
	}
	if len(iter.Rounds[0].Selected) != len(single.Selected) {
		t.Fatalf("round-1 selection %d != single-pass %d",
			len(iter.Rounds[0].Selected), len(single.Selected))
	}
	for i, h := range iter.Rounds[0].Selected {
		if h != single.Selected[i] {
			t.Fatal("round-1 selection differs from single pass")
		}
	}
}

func TestRunIterativeMultipleRounds(t *testing.T) {
	r := rng.New(2)
	data, trainLabels, testLabels := synthData(r, 20, 15, 3)
	opt := svm.DefaultOptions()
	baseline := TrainBaseline(data, trainLabels, 3, opt)
	baseScores := ScoreAll(baseline, data)
	cfg := IterativeConfig{
		Config: Config{Threshold: 1, Method: M2, NumLangs: 3, SVMOptions: opt},
		Rounds: 3,
	}
	out := RunIterative(data, trainLabels, baseline, baseScores, cfg, nil)
	if len(out.Rounds) != 3 {
		t.Fatalf("%d rounds", len(out.Rounds))
	}
	// Selection error should not explode across rounds on separable data.
	for _, rr := range out.Rounds {
		if err := SelectionErrorRate(rr.Selected, testLabels); err > 0.3 {
			t.Fatalf("round %d selection error %v", rr.Round, err)
		}
	}
	if out.Models == nil {
		t.Fatal("no final models")
	}
}

func TestRunIterativeStopsOnStableSelection(t *testing.T) {
	r := rng.New(3)
	data, trainLabels, _ := synthData(r, 20, 15, 3)
	opt := svm.DefaultOptions()
	baseline := TrainBaseline(data, trainLabels, 3, opt)
	baseScores := ScoreAll(baseline, data)
	cfg := IterativeConfig{
		Config:       Config{Threshold: 1, Method: M2, NumLangs: 3, SVMOptions: opt},
		Rounds:       8,
		StopOnStable: true,
	}
	out := RunIterative(data, trainLabels, baseline, baseScores, cfg, nil)
	if len(out.Rounds) == 8 && !out.Stable {
		t.Log("selection never stabilized within 8 rounds (acceptable but unusual)")
	}
	if out.Stable && len(out.Rounds) < 2 {
		t.Fatal("stability can only be declared from round 2 on")
	}
}

func TestRunIterativeRecalibrateHookUsed(t *testing.T) {
	r := rng.New(4)
	data, trainLabels, _ := synthData(r, 15, 12, 3)
	opt := svm.DefaultOptions()
	baseline := TrainBaseline(data, trainLabels, 3, opt)
	baseScores := ScoreAll(baseline, data)
	calls := 0
	hook := func(models []*svm.OneVsRest, scores [][][]float64) [][][]float64 {
		calls++
		return scores
	}
	RunIterative(data, trainLabels, baseline, baseScores, IterativeConfig{
		Config: Config{Threshold: 1, Method: M2, NumLangs: 3, SVMOptions: opt},
		Rounds: 3,
	}, hook)
	if calls != 2 { // rounds 1→2 and 2→3
		t.Fatalf("recalibrate called %d times, want 2", calls)
	}
}

func TestRunIterativeEmptyRoundScoresRaw(t *testing.T) {
	// The hook pushes round 2's vote input below zero, so round 2 selects
	// nothing and keeps round 1's models. Its scores must be those models'
	// raw scores — the next recalibration must not see the shifted input.
	r := rng.New(4)
	data, trainLabels, _ := synthData(r, 15, 12, 3)
	opt := svm.DefaultOptions()
	baseline := TrainBaseline(data, trainLabels, 3, opt)
	baseScores := ScoreAll(baseline, data)
	var round1 []*svm.OneVsRest
	var got [][][]float64
	calls := 0
	hook := func(models []*svm.OneVsRest, scores [][][]float64) [][][]float64 {
		calls++
		if calls == 1 {
			round1 = models
			return shiftScores(scores, -100)
		}
		got = scores
		return scores
	}
	out := RunIterative(data, trainLabels, baseline, baseScores, IterativeConfig{
		Config: Config{Threshold: 1, Method: M2, NumLangs: 3, SVMOptions: opt},
		Rounds: 3,
	}, hook)
	if len(out.Rounds) != 3 || calls != 2 {
		t.Fatalf("%d rounds, %d recalibrations; want 3 and 2", len(out.Rounds), calls)
	}
	if len(out.Rounds[0].Selected) == 0 {
		t.Fatal("round 1 selected nothing")
	}
	if len(out.Rounds[1].Selected) != 0 {
		t.Fatalf("round 2 selected %d on an all-negative vote input", len(out.Rounds[1].Selected))
	}
	want := ScoreAll(round1, data)
	scoresEqual(t, out.Rounds[1].Scores, want)
	scoresEqual(t, got, want)
}

// memRoundCheckpoint is an in-memory RoundCheckpoint for the resume
// tests: rounds saved by one run are replayed by the next.
type memRoundCheckpoint struct {
	saved map[int]*iterSnap
	loads int
	saves int
	// stopAfter, when > 0, panics once that many rounds have been saved —
	// the simulated mid-run kill.
	stopAfter int
}

type iterSnap struct {
	rr     RoundResult
	models []*svm.OneVsRest
}

func (m *memRoundCheckpoint) LoadRound(round int) (*RoundResult, []*svm.OneVsRest, bool) {
	s, ok := m.saved[round]
	if !ok {
		return nil, nil, false
	}
	m.loads++
	rr := s.rr
	return &rr, s.models, true
}

func (m *memRoundCheckpoint) SaveRound(round int, rr *RoundResult, models []*svm.OneVsRest) {
	m.saved[round] = &iterSnap{rr: *rr, models: models}
	m.saves++
	if m.stopAfter > 0 && m.saves >= m.stopAfter {
		panic("memRoundCheckpoint: simulated crash")
	}
}

func scoresEqual(t *testing.T, a, b [][][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("subsystem count %d != %d", len(a), len(b))
	}
	for q := range a {
		if len(a[q]) != len(b[q]) {
			t.Fatalf("subsystem %d: %d rows != %d", q, len(a[q]), len(b[q]))
		}
		for j := range a[q] {
			for k := range a[q][j] {
				if a[q][j][k] != b[q][j][k] {
					t.Fatalf("score [%d][%d][%d] differs: %v != %v", q, j, k, a[q][j][k], b[q][j][k])
				}
			}
		}
	}
}

func TestRunIterativeResumeBitIdentical(t *testing.T) {
	r := rng.New(5)
	data, trainLabels, _ := synthData(r, 20, 15, 3)
	opt := svm.DefaultOptions()
	baseline := TrainBaseline(data, trainLabels, 3, opt)
	baseScores := ScoreAll(baseline, data)
	base := IterativeConfig{
		Config: Config{Threshold: 1, Method: M2, NumLangs: 3, SVMOptions: opt},
		Rounds: 3,
	}

	// Reference: uninterrupted, no checkpointing.
	ref := RunIterative(data, trainLabels, baseline, baseScores, base, nil)

	// Run 1: dies after saving round 2 (of 3).
	ck := &memRoundCheckpoint{saved: make(map[int]*iterSnap), stopAfter: 2}
	killed := base
	killed.Checkpoint = ck
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("simulated crash did not fire")
			}
		}()
		RunIterative(data, trainLabels, baseline, baseScores, killed, nil)
	}()
	if len(ck.saved) != 2 {
		t.Fatalf("crashed run persisted %d rounds, want 2", len(ck.saved))
	}

	// Run 2: resumes from the two saved rounds, computes only round 3.
	ck.stopAfter = 0
	resumed := base
	resumed.Checkpoint = ck
	out := RunIterative(data, trainLabels, baseline, baseScores, resumed, nil)
	if ck.loads != 2 {
		t.Fatalf("resume replayed %d rounds, want 2", ck.loads)
	}
	if len(out.Rounds) != len(ref.Rounds) {
		t.Fatalf("resumed %d rounds, reference %d", len(out.Rounds), len(ref.Rounds))
	}
	for i := range ref.Rounds {
		a, b := ref.Rounds[i], out.Rounds[i]
		if a.Round != b.Round || len(a.Selected) != len(b.Selected) {
			t.Fatalf("round %d shape differs", i+1)
		}
		for j := range a.Selected {
			if a.Selected[j] != b.Selected[j] {
				t.Fatalf("round %d selection differs at %d", i+1, j)
			}
		}
		scoresEqual(t, a.Scores, b.Scores)
	}
}

func TestRunIterativeResumeStopsOnStable(t *testing.T) {
	// A resumed run must apply the StopOnStable check to replayed rounds
	// too: seed a checkpoint whose rounds 1 and 2 select identically and
	// verify the run stops at round 2 without computing anything.
	r := rng.New(6)
	data, trainLabels, _ := synthData(r, 15, 12, 3)
	opt := svm.DefaultOptions()
	baseline := TrainBaseline(data, trainLabels, 3, opt)
	baseScores := ScoreAll(baseline, data)

	sel := []Hypothesis{{Utt: 0, Label: 1, Votes: 2}}
	ck := &memRoundCheckpoint{saved: map[int]*iterSnap{
		1: {rr: RoundResult{Round: 1, Selected: sel, Scores: baseScores}, models: baseline},
		2: {rr: RoundResult{Round: 2, Selected: sel, Scores: baseScores}, models: baseline},
	}}
	out := RunIterative(data, trainLabels, baseline, baseScores, IterativeConfig{
		Config:       Config{Threshold: 1, Method: M2, NumLangs: 3, SVMOptions: opt},
		Rounds:       5,
		StopOnStable: true,
		Checkpoint:   ck,
	}, nil)
	if !out.Stable {
		t.Fatal("replayed fixed point not detected")
	}
	if len(out.Rounds) != 2 {
		t.Fatalf("stopped after %d rounds, want 2", len(out.Rounds))
	}
}

func TestSameSelection(t *testing.T) {
	a := []Hypothesis{{Utt: 1, Label: 2}, {Utt: 3, Label: 0}}
	b := []Hypothesis{{Utt: 3, Label: 0}, {Utt: 1, Label: 2}} // order-free
	if !sameSelection(a, b) {
		t.Fatal("order should not matter")
	}
	c := []Hypothesis{{Utt: 1, Label: 1}, {Utt: 3, Label: 0}}
	if sameSelection(a, c) {
		t.Fatal("label change not detected")
	}
	if sameSelection(a, a[:1]) {
		t.Fatal("length change not detected")
	}
}
