package experiments

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cascade"
	"repro/internal/dba"
)

// Golden end-to-end regression: the medium-scale seed-42 run is pinned
// against results_medium_seed42.txt at the repo root. The pipeline is
// deterministic by construction (seeded splitmix64 streams, fixed
// iteration order), so any drift here means a semantic change to the
// modeling path, not noise.
//
// Tolerance: numeric tokens must agree within 0.05 absolute — half a
// display unit of the %.2f percentage rendering, which also absorbs
// last-ulp float differences across platforms (e.g. FMA contraction on
// arm64). Counts (|T_DBA| sizes, per-duration splits) are integers, so
// the same tolerance pins them exactly. Non-numeric tokens must match
// byte-for-byte.
//
// Pinned sections: Table 1, Table 2 (the full DBA-M1 sweep), Table 4 with
// its headline, and the vote ablation. Table 3 is the same sweep machinery
// as Table 2 with method M2 and its V=3 column is already covered through
// Table 4's DBA fusion, so it is skipped to keep the test's runtime
// bounded. Table 5 (real-time factors) and Fig. 3 are machine-dependent /
// derived and are never pinned.

const goldenTolerance = 0.05

func goldenSection(t *testing.T, golden []string, firstLine string, n int) []string {
	t.Helper()
	for i, line := range golden {
		if line == firstLine {
			if i+n > len(golden) {
				t.Fatalf("golden section %q truncated: need %d lines, have %d", firstLine, n, len(golden)-i)
			}
			return golden[i : i+n]
		}
	}
	t.Fatalf("golden file has no line %q", firstLine)
	return nil
}

// compareTokens checks got against want line-by-line: tokens are split on
// whitespace and "/" (for the EER/Cavg and 30s/10s/3s composites), "%" is
// stripped, and anything that parses as a float on both sides is compared
// within goldenTolerance; everything else must match exactly.
func compareTokens(t *testing.T, section string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rendered %d lines, golden has %d", section, len(got), len(want))
	}
	for li := range want {
		gt := strings.FieldsFunc(got[li], func(r rune) bool { return r == ' ' || r == '\t' || r == '/' })
		wt := strings.FieldsFunc(want[li], func(r rune) bool { return r == ' ' || r == '\t' || r == '/' })
		if len(gt) != len(wt) {
			t.Fatalf("%s line %d: %d tokens vs golden %d\n got: %q\nwant: %q", section, li+1, len(gt), len(wt), got[li], want[li])
		}
		for ti := range wt {
			g := strings.TrimSuffix(gt[ti], "%")
			w := strings.TrimSuffix(wt[ti], "%")
			gf, gerr := strconv.ParseFloat(g, 64)
			wf, werr := strconv.ParseFloat(w, 64)
			if gerr == nil && werr == nil {
				if math.Abs(gf-wf) > goldenTolerance {
					t.Errorf("%s line %d token %d: %v, golden %v (|Δ| > %v)\n got: %q\nwant: %q",
						section, li+1, ti+1, gf, wf, goldenTolerance, got[li], want[li])
				}
				continue
			}
			if g != w {
				t.Errorf("%s line %d token %d: %q, golden %q\n got: %q\nwant: %q",
					section, li+1, ti+1, gt[ti], wt[ti], got[li], want[li])
			}
		}
	}
}

func TestGoldenMediumSeed42(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale pipeline (~1 min): skipped in -short")
	}
	data, err := os.ReadFile("../../results_medium_seed42.txt")
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	golden := strings.Split(strings.TrimRight(string(data), "\n"), "\n")

	p := BuildPipeline(ScaleMedium, 42)

	check := func(section, rendered string) {
		t.Helper()
		lines := strings.Split(strings.TrimRight(rendered, "\n"), "\n")
		want := goldenSection(t, golden, lines[0], len(lines))
		compareTokens(t, section, lines, want)
	}
	check("Table 1", RunTable1(p).String())
	check("Table 2", RunTableDBA(p, dba.M1).String())
	t4 := RunTable4(p, 3)
	check("Table 4", t4.String())
	check("Headline", t4.Summary())
	check("Vote ablation", RunVoteAblation(p, 3).String())
}

// TestGoldenCascadeMediumSeed42 pins the cascade tradeoff table (exit
// fraction, tier-1 exit accuracy, and EER per duration tier at the
// default threshold) next to the paper tables — the committed operating
// point the BENCH_cascade.json acceptance numbers come from. Same
// tolerance contract as TestGoldenMediumSeed42: ±0.05 on numeric tokens.
func TestGoldenCascadeMediumSeed42(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale pipeline (~1 min): skipped in -short")
	}
	data, err := os.ReadFile("../../results_medium_seed42.txt")
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	golden := strings.Split(strings.TrimRight(string(data), "\n"), "\n")

	p := BuildPipeline(ScaleMedium, 42)
	tb, err := p.RunCascadeTable()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	want := goldenSection(t, golden, lines[0], len(lines))
	compareTokens(t, "Cascade", lines, want)
}

// No binary links this; the golden cascade test renders the table.

// CascadeTable is the golden-pinned tradeoff table: one row per duration
// tier at the default threshold.
type CascadeTable struct {
	FrontEnd string
	Rows     []CascadeTierEval
}

// RunCascadeTable trains the cascade and evaluates the default policy
// (offset 0 — the calibrated per-tier margins as-is).
func (p *Pipeline) RunCascadeTable() (*CascadeTable, error) {
	m, err := p.TrainCascade()
	if err != nil {
		return nil, err
	}
	return &CascadeTable{FrontEnd: m.FrontEnd, Rows: p.EvalCascade(m, cascade.Policy{})}, nil
}

// String renders the golden-pinned layout.
func (t *CascadeTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cascade: tier-1 tradeoff at the default threshold (front-end %s)\n", t.FrontEnd)
	fmt.Fprintf(&b, "%-5s %8s %10s %10s %12s %8s\n", "Dur", "Exit%", "Tier1Acc%", "EERheavy", "EERcascade", "dEER")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-5s %7.2f%% %9.2f%% %10.2f %12.2f %8.2f\n",
			r.Tier, 100*r.ExitFrac, r.Tier1AccPct, r.EERHeavyPct, r.EERCascadePct, r.EERDeltaPct)
	}
	return b.String()
}
