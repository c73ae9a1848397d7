package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dba"
	"repro/internal/fusion"
	"repro/internal/obs"
)

var (
	testPipeOnce sync.Once
	testPipe     *Pipeline
)

// sharedPipeline builds one tiny pipeline for the whole test binary
// (~8 s); individual tests assert different properties of it.
func sharedPipeline(t *testing.T) *Pipeline {
	t.Helper()
	if testing.Short() {
		t.Skip("pipeline build is slow")
	}
	testPipeOnce.Do(func() {
		testPipe = BuildPipeline(ScaleTiny, 42)
	})
	return testPipe
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"tiny", "small", "medium", "full"} {
		sc, err := ParseScale(s)
		if err != nil {
			t.Fatal(err)
		}
		if sc.String() != s {
			t.Fatalf("round trip %q -> %q", s, sc.String())
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("accepted unknown scale")
	}
}

func TestCorpusConfigScalesMonotone(t *testing.T) {
	prev := 0
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScaleMedium, ScaleFull} {
		cfg := CorpusConfig(s, 1)
		if cfg.TrainPerLang <= prev {
			t.Fatalf("scale %v not larger than previous", s)
		}
		prev = cfg.TrainPerLang
	}
}

func TestPipelineStructure(t *testing.T) {
	p := sharedPipeline(t)
	if len(p.FEs) != 6 || len(p.Data) != 6 || len(p.Baseline) != 6 {
		t.Fatal("expected six subsystems")
	}
	if len(p.TestLabels) != len(p.Data[0].Test) {
		t.Fatal("test labels misaligned with test vectors")
	}
	total := 0
	for _, dur := range corpus.Durations {
		total += len(p.TestIdx[dur])
	}
	if total != len(p.TestLabels) {
		t.Fatal("duration tiers do not partition the pooled test set")
	}
	for q := range p.BaselineScores {
		if len(p.BaselineScores[q]) != len(p.TestLabels) {
			t.Fatalf("subsystem %d score matrix wrong size", q)
		}
		if len(p.VoteScores[q]) != len(p.TestLabels) {
			t.Fatalf("subsystem %d vote-score matrix wrong size", q)
		}
	}
}

func TestBaselineEERDurationOrdering(t *testing.T) {
	// The paper's core regime: short utterances are harder. Require it per
	// front-end between the extremes (30 s vs 3 s).
	p := sharedPipeline(t)
	for q, d := range p.Data {
		e30, _ := Eval(p.BaselineScores[q], p.TestLabels, p.TestIdx[30])
		e3, _ := Eval(p.BaselineScores[q], p.TestLabels, p.TestIdx[3])
		if e3 <= e30 {
			t.Errorf("%s: 3s EER %.2f not worse than 30s %.2f", d.Name, e3, e30)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	// Paper Table 1: |T_DBA| grows and label error rises as V decreases.
	p := sharedPipeline(t)
	t1 := RunTable1(p)
	if len(t1.Rows) != 6 {
		t.Fatalf("%d rows", len(t1.Rows))
	}
	for i := 1; i < len(t1.Rows); i++ {
		if t1.Rows[i].V >= t1.Rows[i-1].V {
			t.Fatal("rows not in descending V order")
		}
		if t1.Rows[i].Size < t1.Rows[i-1].Size {
			t.Errorf("size not monotone: V=%d has %d < V=%d's %d",
				t1.Rows[i].V, t1.Rows[i].Size, t1.Rows[i-1].V, t1.Rows[i-1].Size)
		}
	}
	// Error at the loosest threshold exceeds error at the strictest.
	if t1.Rows[len(t1.Rows)-1].ErrorRatePct < t1.Rows[0].ErrorRatePct {
		t.Error("label error did not grow with looser thresholds")
	}
	// Selection is non-trivial at V=3.
	if t1.Rows[3].V != 3 || t1.Rows[3].Size == 0 {
		t.Error("V=3 selected nothing")
	}
	if !strings.Contains(t1.String(), "Table 1") {
		t.Error("renderer broken")
	}
}

func TestDBAM2ImprovesOverBaseline(t *testing.T) {
	// The headline direction: DBA-M2 at the paper's operating point must
	// beat the baseline in mean EER across front-ends and durations.
	p := sharedPipeline(t)
	o := p.DBAOutcome(3, dba.M2)
	var base, after float64
	var n int
	for q := range p.Data {
		for _, dur := range corpus.Durations {
			be, _ := Eval(p.BaselineScores[q], p.TestLabels, p.TestIdx[dur])
			de, _ := Eval(o.Scores[q], p.TestLabels, p.TestIdx[dur])
			base += be
			after += de
			n++
		}
	}
	base /= float64(n)
	after /= float64(n)
	if after >= base {
		t.Fatalf("DBA-M2 mean EER %.2f did not improve on baseline %.2f", after, base)
	}
}

func TestDBAGainsGrowAsDurationShrinks(t *testing.T) {
	// Paper: relative gains are largest at 3 s. Compare mean absolute EER
	// gain at 3 s vs 30 s for DBA-M2 at V=3.
	p := sharedPipeline(t)
	o := p.DBAOutcome(3, dba.M2)
	gain := func(dur float64) float64 {
		var g float64
		for q := range p.Data {
			be, _ := Eval(p.BaselineScores[q], p.TestLabels, p.TestIdx[dur])
			de, _ := Eval(o.Scores[q], p.TestLabels, p.TestIdx[dur])
			g += be - de
		}
		return g / float64(len(p.Data))
	}
	if gain(3) <= gain(30) {
		t.Fatalf("3s gain %.2f not larger than 30s gain %.2f", gain(3), gain(30))
	}
}

func TestDBAOutcomeMemoized(t *testing.T) {
	p := sharedPipeline(t)
	a := p.DBAOutcome(3, dba.M2)
	b := p.DBAOutcome(3, dba.M2)
	if a != b {
		t.Fatal("outcome not memoized")
	}
	c := p.DBAOutcome(3, dba.M1)
	if a == c {
		t.Fatal("different methods shared an outcome")
	}
}

func TestTableDBARunsAndRenders(t *testing.T) {
	p := sharedPipeline(t)
	t2 := RunTableDBA(p, dba.M1)
	t3 := RunTableDBA(p, dba.M2)
	if len(t2.FrontEnds) != 6 || len(t3.FrontEnds) != 6 {
		t.Fatal("front-end rows missing")
	}
	for v := 1; v <= 6; v++ {
		for _, fe := range t2.FrontEnds {
			for _, dur := range corpus.Durations {
				c := t2.ByV[v][fe][dur]
				if c.EER < 0 || c.EER > 100 || c.Cavg < 0 || c.Cavg > 100 {
					t.Fatalf("cell out of range: %+v", c)
				}
			}
		}
	}
	if bv := t3.BestV(); bv < 1 || bv > 6 {
		t.Fatalf("BestV = %d", bv)
	}
	if !strings.Contains(t2.String(), "Table 2") || !strings.Contains(t3.String(), "Table 3") {
		t.Error("table renderers mislabeled")
	}
}

func TestTable4FusionBeatsSingles(t *testing.T) {
	p := sharedPipeline(t)
	t4 := RunTable4(p, 3)
	for _, dur := range corpus.Durations {
		var meanSingle float64
		for _, fe := range t4.FrontEnds {
			meanSingle += t4.BaselineSingle[fe][dur].EER
		}
		meanSingle /= float64(len(t4.FrontEnds))
		if t4.BaselineFusion[dur].EER >= meanSingle {
			t.Errorf("%gs: fusion EER %.2f not better than mean single %.2f",
				dur, t4.BaselineFusion[dur].EER, meanSingle)
		}
	}
	if !strings.Contains(t4.String(), "Table 4") || !strings.Contains(t4.Summary(), "relative") {
		t.Error("Table 4 renderer broken")
	}
}

func TestTable4DBAFusionImprovesShortDurations(t *testing.T) {
	// The paper's headline: fused DBA beats fused baseline, most at 3 s.
	p := sharedPipeline(t)
	t4 := RunTable4(p, 3)
	if t4.DBAFusion[3].EER >= t4.BaselineFusion[3].EER {
		t.Fatalf("3s fused DBA %.2f not better than fused baseline %.2f",
			t4.DBAFusion[3].EER, t4.BaselineFusion[3].EER)
	}
}

func TestFig3Curves(t *testing.T) {
	p := sharedPipeline(t)
	f := RunFig3(p, 3)
	for _, dur := range corpus.Durations {
		c, ok := f.Curves[dur]
		if !ok {
			t.Fatalf("missing curves for %gs", dur)
		}
		for _, pts := range [][]struct{ Pfa, Pmiss float64 }{} {
			_ = pts
		}
		if len(c.Baseline) < 10 || len(c.DBA) < 10 {
			t.Fatalf("%gs: too few DET points", dur)
		}
		if c.Baseline[0].Pmiss != 1 || c.Baseline[len(c.Baseline)-1].Pfa != 1 {
			t.Error("DET endpoints wrong")
		}
	}
	if !strings.Contains(f.String(), "Fig. 3") {
		t.Error("Fig. 3 renderer broken")
	}
}

func TestVoteAblationStrictIsCleaner(t *testing.T) {
	p := sharedPipeline(t)
	a := RunVoteAblation(p, 3)
	if a.StrictErrorPct > a.NaiveErrorPct {
		t.Fatalf("strict criterion (%.2f%%) dirtier than naive (%.2f%%)",
			a.StrictErrorPct, a.NaiveErrorPct)
	}
	if a.NaiveSize < a.StrictSize {
		t.Fatalf("naive voting selected fewer (%d) than strict (%d)", a.NaiveSize, a.StrictSize)
	}
	if !strings.Contains(a.String(), "ablation") {
		t.Error("ablation renderer broken")
	}
}

func TestFusedBaselineEERAblation(t *testing.T) {
	p := sharedPipeline(t)
	fusedEER := func(cfg fusion.Config) float64 {
		x, y := fusion.Trials(p.BaselineDev, nil, p.DevLabels, p.DevIdx[30])
		bk, err := fusion.Train(x, y, 2, cfg)
		if err != nil {
			t.Fatalf("fusion training failed: %v", err)
		}
		eer, _ := Eval(fusion.DecideAll(bk, p.BaselineScores), p.TestLabels, p.TestIdx[30])
		return eer
	}
	ldaOnly := fusedEER(fusion.Config{MMIIters: 0, LearnRate: 0.05, Ridge: 1e-3})
	ldaMMI := fusedEER(fusion.DefaultConfig())
	// MMI refinement should not catastrophically hurt.
	if ldaMMI > ldaOnly+5 {
		t.Fatalf("MMI degraded fusion badly: %.2f vs %.2f", ldaMMI, ldaOnly)
	}
}

func TestTable5(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run is slow")
	}
	cfg := DefaultTable5Config()
	cfg.NumUtterances = 1
	cfg.UtteranceDurS = 10
	t5, err := RunTable5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 2 {
		t.Fatalf("%d rows", len(t5.Rows))
	}
	pp, dbaRow := t5.Rows[0], t5.Rows[1]
	if pp.System != "PPRVSM" || dbaRow.System != "DBA" {
		t.Fatal("row order wrong")
	}
	if dbaRow.Decode != pp.Decode {
		t.Error("decoding cost must be shared")
	}
	if dbaRow.SVProd != 2*pp.SVProd {
		t.Error("DBA must double the scoring cost")
	}
	// The paper's structural claim: decoding dominates by orders of
	// magnitude.
	if pp.Decode < 100*pp.SVGen || pp.Decode < 100*pp.SVProd {
		t.Errorf("decoding (%.2e) does not dominate SV gen (%.2e) / prod (%.2e)",
			pp.Decode, pp.SVGen, pp.SVProd)
	}
	if !strings.Contains(t5.String(), "Table 5") {
		t.Error("Table 5 renderer broken")
	}

	// The obs trace and the printed table must be the same measurement:
	// the decode RTF reconstructed from the span equals the table's value.
	rep := obs.Snapshot()
	sp := rep.Find("table5")
	if sp == nil {
		t.Fatal("no table5 span in the trace")
	}
	for _, name := range []string{"decode", "supervector-gen", "svm-score", "dba", "dba.round-1"} {
		if sp.Find(name) == nil {
			t.Errorf("trace missing stage span %q", name)
		}
	}
	dec := sp.Find("decode")
	derived := dec.DurationSec / dec.Attrs["audio_seconds"]
	if math.Abs(derived-pp.Decode) > 1e-12 || math.Abs(dec.Attrs["rtf"]-pp.Decode) > 1e-12 {
		t.Errorf("trace decode RTF %g / attr %g disagree with table %g",
			derived, dec.Attrs["rtf"], pp.Decode)
	}
}
