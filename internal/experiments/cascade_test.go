package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cascade"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/persist"
)

func TestCascadeTinyPipelineEndToEnd(t *testing.T) {
	p := BuildPipeline(ScaleTiny, 1)
	m, err := p.TrainCascade()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.FrontEnd != CascadeFrontEnd {
		t.Fatalf("designated front-end %q", m.FrontEnd)
	}
	if got := len(m.Tiers); got != 3 {
		t.Fatalf("%d tiers", got)
	}

	// Memoized: the same model object comes back.
	m2, err := p.TrainCascade()
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatal("TrainCascade retrained instead of memoizing")
	}

	// Endpoint policies: -Inf escalates everything, +Inf exits everything.
	evInfDown := p.EvalCascade(m, cascade.Policy{Default: math.Inf(-1)})
	for _, ev := range evInfDown {
		if ev.Exited != 0 {
			t.Fatalf("tier %s exited %d at -Inf", ev.Tier, ev.Exited)
		}
		if ev.EERCascadePct != ev.EERHeavyPct {
			t.Fatalf("tier %s: escalate-all EER %.3f differs from heavy %.3f", ev.Tier, ev.EERCascadePct, ev.EERHeavyPct)
		}
	}
	evInfUp := p.EvalCascade(m, cascade.Policy{Default: math.Inf(1)})
	for _, ev := range evInfUp {
		if ev.Exited != ev.Total {
			t.Fatalf("tier %s exited %d/%d at +Inf", ev.Tier, ev.Exited, ev.Total)
		}
	}

	// Exit fraction is monotone in the threshold offset, per tier.
	prev := map[string]float64{}
	for _, th := range []float64{math.Inf(-1), -0.01, 0, 0.01, math.Inf(1)} {
		for _, ev := range p.EvalCascade(m, cascade.Policy{Default: th}) {
			if ev.ExitFrac < prev[ev.Tier] {
				t.Fatalf("tier %s: exit fraction fell from %.3f to %.3f at threshold %g",
					ev.Tier, prev[ev.Tier], ev.ExitFrac, th)
			}
			prev[ev.Tier] = ev.ExitFrac
		}
	}

	tb, err := p.RunCascadeTable()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb.String())

	// The -cascade-eval report's default operating point is the golden
	// table's, and its curve covers every tier at every sweep offset.
	bench, err := p.RunCascadeBench()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.Default, tb.Rows) {
		t.Fatalf("cascade report default %+v, table rows %+v", bench.Default, tb.Rows)
	}
	if got, want := len(bench.Curve), len(corpus.Durations)*len(CascadeSweepThresholds); got != want {
		t.Fatalf("cascade report curve has %d points, want %d", got, want)
	}
	for ti, tier := range m.Tiers {
		t.Logf("tier %s: MinPhones=%d RequiredMargin=%g tgt=(%g,%g) nt=(%g,%g) exit=%.2f acc=%.1f",
			tier.Name, tier.MinPhones, tier.RequiredMargin, tier.TargetA, tier.TargetB,
			tier.NontargetA, tier.NontargetB, tb.Rows[ti].ExitFrac, tb.Rows[ti].Tier1AccPct)
	}
}

func TestCascadeBundleExportCarriesCascade(t *testing.T) {
	p := BuildPipeline(ScaleTiny, 2)
	b := p.BuildBundle()
	if b.Cascade == nil {
		t.Fatal("exported bundle has no cascade")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := p.ExportModels(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if man.Cascade != CascadeFrontEnd {
		t.Fatalf("manifest cascade %q", man.Cascade)
	}
}

// TestChaosExportKeepsCascade is the decode-once regression: a run whose
// extraction quarantines injected decode faults must also export, cascade
// included — tier 1 trains on the 1-best strings extraction kept, with an
// empty string for every quarantined utterance, and decodes nothing again.
func TestChaosExportKeepsCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline build is slow")
	}
	plan, err := faultinject.ParsePlan("seed=3; frontend.decode:error:every=100")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Enable(plan)
	defer restore()
	p, err := BuildPipelineCK(ScaleTiny, 42, nil)
	if err != nil {
		t.Fatalf("BuildPipelineCK: %v", err)
	}
	dir := t.TempDir()
	man, err := p.ExportModels(dir, "chaos")
	if err != nil {
		t.Fatalf("ExportModels: %v", err)
	}
	if man.Cascade != CascadeFrontEnd {
		t.Fatalf("manifest cascade %q, want %q", man.Cascade, CascadeFrontEnd)
	}
	b, _, err := persist.LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cascade == nil {
		t.Fatal("exported bundle has no cascade")
	}

	f := p.cascadeFeats()
	if len(f.Quarantined) == 0 {
		t.Fatal("the plan quarantined no cascade front-end utterance — bad test premise")
	}
	bad := make(map[int]bool)
	for _, q := range f.Quarantined {
		bad[q.ItemID] = true
	}
	for _, s := range []*corpus.Split{p.Corpus.Train, p.Corpus.AllDev(), p.Corpus.AllTest()} {
		for i, seq := range f.BestPaths(s) {
			if id := s.Items[i].ID; bad[id] != (len(seq) == 0) {
				t.Fatalf("item %d: quarantined=%v, kept a %d-phone string", id, bad[id], len(seq))
			}
		}
	}
}
