package experiments

import (
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/dba"
	"repro/internal/metrics"
	"repro/internal/synthlang"
)

func TestIterativeDBA(t *testing.T) {
	p := sharedPipeline(t)
	out := p.IterativeDBA(3, dba.M2, 3)
	if len(out.Rounds) < 1 || len(out.Rounds) > 3 {
		t.Fatalf("%d rounds", len(out.Rounds))
	}
	// Round 1 must match the single-pass memoized outcome's selection.
	single := p.DBAOutcome(3, dba.M2)
	if len(out.Rounds[0].Selected) != len(single.Selected) {
		t.Fatalf("round 1 selected %d, single pass %d",
			len(out.Rounds[0].Selected), len(single.Selected))
	}
	// The report is pinned like the tables (see golden_test.go).
	golden, err := os.ReadFile(iterativeGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(golden), "\n"), "\n")
	got := strings.Split(strings.TrimRight(p.IterativeReport(out), "\n"), "\n")
	compareTokens(t, "iterated DBA", got, want)
}

// iterativeGolden is IterativeReport(IterativeDBA(3, M2, 3)) on the tiny
// seed-42 pipeline.
const iterativeGolden = "testdata/iterative_dba_tiny_seed42.txt"

func TestSelectionStatsAtFA(t *testing.T) {
	p := sharedPipeline(t)
	// Selection error should rise (or at least not fall much) as the
	// operating point loosens, and size should respond to FA.
	tight := p.SelectionStatsAtFA(0.01, 3)
	mid := p.SelectionStatsAtFA(0.03, 3)
	if tight.Size == 0 && mid.Size == 0 {
		t.Skip("nothing selected at tiny scale")
	}
	if tight.ErrorRatePct > mid.ErrorRatePct+5 {
		t.Fatalf("tighter calibration dirtier: %.2f%% vs %.2f%%",
			tight.ErrorRatePct, mid.ErrorRatePct)
	}
	if mid.FA != 0.03 || mid.V != 3 {
		t.Fatal("stats metadata wrong")
	}
}

func TestRunOpenSet(t *testing.T) {
	p := sharedPipeline(t)
	res := RunOpenSet(p, 3, 4)
	for _, dur := range []float64{30, 10, 3} {
		closed, open := res.Closed[dur], res.Open[dur]
		if closed <= 0 && dur != 30 {
			t.Errorf("%gs closed EER %v implausible", dur, closed)
		}
		// OOS trials only add non-targets; open-set EER must not drop far
		// below closed-set (it usually rises).
		if open < closed-2 {
			t.Errorf("%gs open EER %.2f far below closed %.2f", dur, open, closed)
		}
		if fa := res.OOSFalseAlarm[dur]; fa < 0 || fa > 100 {
			t.Errorf("OOS FA %v out of range", fa)
		}
	}
	if !strings.Contains(res.String(), "Open-set") {
		t.Error("renderer broken")
	}
}

func TestFamilyPairsAreHardestConfusions(t *testing.T) {
	// The corpus's family structure (hindi/urdu, bosnian/croatian, …) must
	// surface in the *system's* behavior: pairwise detection EERs between
	// family members should be far above the average unrelated pair.
	p := sharedPipeline(t)
	var pairs []metrics.PairTrial
	for q := range p.BaselineScores {
		for _, j := range p.TestIdx[30] {
			for k, s := range p.BaselineScores[q][j] {
				pairs = append(pairs, metrics.PairTrial{Model: k, True: p.TestLabels[j], Score: s})
			}
		}
	}
	m := metrics.PairwiseEER(pairs, NumLangs)
	idx := map[string]int{}
	for i, n := range synthlang.LanguageNames {
		idx[n] = i
	}
	family := [][2]string{
		{"hindi", "urdu"}, {"bosnian", "croatian"}, {"dari", "farsi"},
		{"russian", "ukrainian"}, {"cantonese", "mandarin"},
	}
	var famSum float64
	var famN int
	for _, f := range family {
		a, b := idx[f[0]], idx[f[1]]
		if !math.IsNaN(m[a][b]) {
			famSum += m[a][b]
			famN++
		}
		if !math.IsNaN(m[b][a]) {
			famSum += m[b][a]
			famN++
		}
	}
	var allSum float64
	var allN int
	for a := 0; a < NumLangs; a++ {
		for b := 0; b < NumLangs; b++ {
			if a != b && !math.IsNaN(m[a][b]) {
				allSum += m[a][b]
				allN++
			}
		}
	}
	famMean := famSum / float64(famN)
	allMean := allSum / float64(allN)
	t.Logf("family-pair mean EER %.1f%% vs all-pair mean %.1f%%", famMean*100, allMean*100)
	if famMean < 1.5*allMean {
		t.Fatalf("family pairs (%.3f) not clearly harder than average pair (%.3f)", famMean, allMean)
	}
}
