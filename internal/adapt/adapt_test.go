package adapt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/persist"
	"repro/internal/sparse"
)

// correct labels the fixture's holdout order (j % 3).
func correct(j int) int { return j % tfLangs }

// wrong deliberately mislabels every observation (EER-regression fuel).
func wrong(j int) int { return (j%tfLangs + 1) % tfLangs }

func TestPromoteSuccess(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 11)
	a, h := newTestAdapter(t, dir, nil)
	feed(a, set, tfHoldout, correct)

	res := a.TryPromote(true)
	if !res.Promoted || res.Outcome != OutcomePromoted {
		t.Fatalf("outcome %q (err %q), want %q", res.Outcome, res.Err, OutcomePromoted)
	}
	if res.Generation != 1 {
		t.Fatalf("generation %d, want 1", res.Generation)
	}
	if h.swaps != 1 {
		t.Fatalf("swap called %d times, want 1", h.swaps)
	}

	if rec, _, err := persist.BundleRoot(dir).Open(); err != nil || rec == nil || rec.Generation != 1 {
		t.Fatalf("newest commit record %+v (err %v), want generation 1", rec, err)
	}
	b, _, info, err := persist.ResolveBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.DirName != persist.GenDirName(1) || info.Fallback {
		t.Fatalf("resolved %+v, want generation 1 without fallback", info)
	}
	if info.LastKnownGood != persist.BaseGenDir {
		t.Fatalf("last-known-good %q, want %q", info.LastKnownGood, persist.BaseGenDir)
	}
	// The host's serving bundle is the promoted candidate, and the
	// post-promotion probe already verified it against the pinned scores.
	if h.cur == nil || b == nil {
		t.Fatal("no bundle after promotion")
	}
	st := a.Status()
	if st.Generation != 1 || st.Promotions != 1 || st.Rollbacks != 0 {
		t.Fatalf("status %+v", st)
	}
	// A promotion consumes the buffer: the next pass (even forced) skips.
	res = a.TryPromote(true)
	if res.Outcome != OutcomeNoData {
		t.Fatalf("post-promotion pass %q, want %q", res.Outcome, OutcomeNoData)
	}
}

func TestPromoteSkipsBelowMinUtts(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 12)
	a, _ := newTestAdapter(t, dir, func(p *Policy) { p.MinUtts = 8 })
	feed(a, set, 2, correct)
	res := a.TryPromote(false)
	if res.Outcome != OutcomeNoData {
		t.Fatalf("outcome %q, want %q", res.Outcome, OutcomeNoData)
	}
	if rec, _, _ := persist.BundleRoot(dir).Open(); rec != nil {
		t.Fatalf("a skipped pass committed generation %d", rec.Generation)
	}
}

// assertUntouched verifies the serving side survived an attempt intact:
// base files bit-identical, no commit record, no live generation.
func assertUntouched(t *testing.T, dir string, before [32]byte) {
	t.Helper()
	if rootDigest(t, dir) != before {
		t.Fatal("base bundle files changed")
	}
	if rec, _, _ := persist.BundleRoot(dir).Open(); rec != nil {
		t.Fatalf("a failed attempt committed generation %d", rec.Generation)
	}
	if gens := liveGenerations(t, dir); len(gens) != 0 {
		t.Fatalf("live generations after a failed attempt: %v", gens)
	}
}

// liveGenerations lists the root's gen-* directories, oldest first.
func liveGenerations(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "gen-*"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

// isQuarantined reports whether generation gen exists only under the
// quarantine prefix.
func isQuarantined(t *testing.T, dir string, gen int64) bool {
	t.Helper()
	name := persist.GenDirName(gen)
	if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
		return false
	}
	_, err := os.Stat(filepath.Join(dir, "quarantine-"+name))
	return err == nil
}

func TestGateVetoCanary(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 13)
	// Zero drift tolerance: any retrained battery legitimately moves the
	// referee scores, so the canary must veto.
	a, h := newTestAdapter(t, dir, func(p *Policy) { p.CanaryTol = 0 })
	before := rootDigest(t, dir)
	feed(a, set, tfHoldout, correct)

	res := a.TryPromote(true)
	if res.Outcome != OutcomeCanaryVeto {
		t.Fatalf("outcome %q (err %q), want %q", res.Outcome, res.Err, OutcomeCanaryVeto)
	}
	if h.swaps != 0 {
		t.Fatal("swap ran despite a canary veto")
	}
	assertUntouched(t, dir, before)
	if !isQuarantined(t, dir, 1) {
		t.Fatal("vetoed candidate was not quarantined")
	}
}

func TestGateVetoShadow(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 14)
	a, _ := newTestAdapter(t, dir, func(p *Policy) { p.ShadowBound = 0 })
	before := rootDigest(t, dir)
	feed(a, set, tfHoldout, correct)

	res := a.TryPromote(true)
	if res.Outcome != OutcomeShadowVeto {
		t.Fatalf("outcome %q (err %q), want %q", res.Outcome, res.Err, OutcomeShadowVeto)
	}
	if res.ShadowN == 0 {
		t.Fatal("shadow gate fired without sampling anything")
	}
	assertUntouched(t, dir, before)
	if !isQuarantined(t, dir, 1) {
		t.Fatal("vetoed candidate was not quarantined")
	}
}

func TestGateVetoEER(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 15)
	// Zero regression budget + systematically mislabeled self-training
	// data: the candidate must test worse on the frozen holdout.
	a, _ := newTestAdapter(t, dir, func(p *Policy) { p.EERBudget = 0 })
	before := rootDigest(t, dir)
	feed(a, set, tfHoldout, wrong)

	res := a.TryPromote(true)
	if res.Outcome != OutcomeEERVeto {
		t.Fatalf("outcome %q (err %q; cand %.2f serv %.2f), want %q",
			res.Outcome, res.Err, res.CandEER, res.ServEER, OutcomeEERVeto)
	}
	if res.CandEER <= res.ServEER {
		t.Fatalf("mislabeled training did not regress EER: cand %.2f vs serv %.2f", res.CandEER, res.ServEER)
	}
	assertUntouched(t, dir, before)
	if !isQuarantined(t, dir, 1) {
		t.Fatal("vetoed candidate was not quarantined")
	}
}

// TestChaosSitesLeaveServingUntouched is the chaos contract: an injected
// error or panic at any adapt.* site aborts the attempt and leaves the
// base bundle bit-identical with nothing promoted.
func TestChaosSitesLeaveServingUntouched(t *testing.T) {
	cases := []struct {
		site, kind  string
		wantOutcome string
	}{
		{SiteTrain, "error", OutcomeTrainErr},
		{SiteTrain, "panic", OutcomeTrainErr},
		{SiteCanary, "error", OutcomeCanaryVeto},
		{SiteCanary, "panic", OutcomeCanaryVeto},
		{SitePromote, "error", OutcomePromoteErr},
		{SitePromote, "panic", OutcomePromoteErr},
	}
	for _, tc := range cases {
		t.Run(tc.site+"/"+tc.kind, func(t *testing.T) {
			dir := t.TempDir()
			_, set := writeFixture(t, dir, 16)
			a, h := newTestAdapter(t, dir, nil)
			before := rootDigest(t, dir)
			feed(a, set, tfHoldout, correct)

			kind := faultinject.KindError
			if tc.kind == "panic" {
				kind = faultinject.KindPanic
			}
			restore := faultinject.Enable(&faultinject.Plan{Seed: 7, Rules: []faultinject.Rule{
				{Site: tc.site, Kind: kind, Every: 1},
			}})
			res := a.TryPromote(true)
			restore()

			if res.Outcome != tc.wantOutcome {
				t.Fatalf("outcome %q (err %q), want %q", res.Outcome, res.Err, tc.wantOutcome)
			}
			if res.Promoted {
				t.Fatal("promoted under injected fault")
			}
			if h.swaps != 0 {
				t.Fatal("swap ran under injected fault")
			}
			assertUntouched(t, dir, before)
			// Serving still resolves to the untouched base.
			if _, _, info, err := persist.ResolveBundle(dir); err != nil || info.Generation != 0 {
				t.Fatalf("resolve after fault: gen %d err %v", info.Generation, err)
			}
		})
	}
}

// TestSwapRefusedRevertsPointer covers the breaker-open path: the gates
// pass, the pointer flips, but the serving process refuses the hot swap —
// the flip must be reverted and the candidate quarantined.
func TestSwapRefusedRevertsPointer(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 17)
	a, h := newTestAdapter(t, dir, nil)
	h.fail = errors.New("breaker open")
	feed(a, set, tfHoldout, correct)

	res := a.TryPromote(true)
	if res.Outcome != OutcomeSwapErr {
		t.Fatalf("outcome %q (err %q), want %q", res.Outcome, res.Err, OutcomeSwapErr)
	}
	// The pointer must not designate the un-swappable generation.
	if _, _, info, err := persist.ResolveBundle(dir); err != nil || info.Generation != 0 {
		t.Fatalf("resolve after refused swap: gen %d err %v", info.Generation, err)
	}
	if !isQuarantined(t, dir, 1) {
		t.Fatal("un-swappable candidate was not quarantined")
	}
}

func TestProbeRollback(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 18)
	a, h := newTestAdapter(t, dir, nil)
	feed(a, set, tfHoldout, correct)
	if res := a.TryPromote(true); res.Outcome != OutcomePromoted {
		t.Fatalf("setup promotion failed: %q (%s)", res.Outcome, res.Err)
	}
	swapsAfterPromote := h.swaps

	// A failing canary probe on the promoted generation must roll back to
	// last-known-good automatically.
	restore := faultinject.Enable(&faultinject.Plan{Seed: 7, Rules: []faultinject.Rule{
		{Site: SiteCanary, Kind: faultinject.KindError, Every: 1},
	}})
	err := a.Probe()
	restore()
	if err == nil {
		t.Fatal("probe passed under injected canary fault")
	}
	if h.swaps != swapsAfterPromote+1 {
		t.Fatalf("rollback did not swap (swaps %d)", h.swaps)
	}
	if _, _, info, rerr := persist.ResolveBundle(dir); rerr != nil || info.Generation != 0 {
		t.Fatalf("resolve after rollback: gen %d err %v", info.Generation, rerr)
	}
	if !isQuarantined(t, dir, 1) {
		t.Fatal("rolled-back generation was not quarantined")
	}
	st := a.Status()
	if st.Generation != 0 || st.Rollbacks != 1 {
		t.Fatalf("status after rollback: %+v", st)
	}
	// A base-generation adapter does not probe (its pinned scores are its
	// own export).
	if err := a.Probe(); err != nil {
		t.Fatalf("generation-0 probe: %v", err)
	}
}

func TestRollbackCommand(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 19)
	a, h := newTestAdapter(t, dir, nil)
	feed(a, set, tfHoldout, correct)
	if res := a.TryPromote(true); res.Outcome != OutcomePromoted {
		t.Fatalf("setup promotion failed: %q", res.Outcome)
	}
	servingGen1 := h.cur

	res, err := a.Rollback("operator request")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeRolledBack || res.Generation != 0 {
		t.Fatalf("rollback result %+v", res)
	}
	if h.cur == servingGen1 {
		t.Fatal("serving bundle unchanged after rollback")
	}
	if _, _, info, rerr := persist.ResolveBundle(dir); rerr != nil || info.Generation != 0 {
		t.Fatalf("resolve after rollback: gen %d err %v", info.Generation, rerr)
	}
	// Rolling back with nothing promoted is an error, not a crash.
	if _, err := a.Rollback("again"); err == nil {
		t.Fatal("rollback of the base generation should fail")
	}
}

func TestPromotePruneKeepsPinned(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 20)
	a, _ := newTestAdapter(t, dir, func(p *Policy) { p.Keep = 1 })
	for i := 0; i < 4; i++ {
		feed(a, set, tfHoldout, correct)
		res := a.TryPromote(true)
		if res.Outcome != OutcomePromoted {
			t.Fatalf("promotion %d: %q (%s)", i+1, res.Outcome, res.Err)
		}
	}
	// keep=1 plus the pins: gen 4 (serving) and gen 3 (last-known-good)
	// are pinned, gen 2 is the one kept generation, gen 1 is pruned.
	want := persist.GenDirName(2) + "," + persist.GenDirName(3) + "," + persist.GenDirName(4)
	if got := strings.Join(liveGenerations(t, dir), ","); got != want {
		t.Fatalf("live generations %q, want %q", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "bundle.gob")); err != nil {
		t.Fatalf("prune touched the base bundle: %v", err)
	}
}

// TestCrashRestartResumesPromotedGeneration: a fresh adapter (process
// restart) over a promoted root resumes at the promoted generation.
func TestCrashRestartResumesPromotedGeneration(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 21)
	a, _ := newTestAdapter(t, dir, nil)
	feed(a, set, tfHoldout, correct)
	if res := a.TryPromote(true); res.Outcome != OutcomePromoted {
		t.Fatalf("setup promotion failed: %q", res.Outcome)
	}

	a2, _ := newTestAdapter(t, dir, nil)
	if st := a2.Status(); st.Generation != 1 {
		t.Fatalf("restarted adapter at generation %d, want 1", st.Generation)
	}
}

// TestCorruptPromotedGenerationFallsBack: a promoted generation whose
// bundle is later torn on disk must resolve to an older generation (here
// the base), never to garbage and never to nothing.
func TestCorruptPromotedGenerationFallsBack(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 22)
	a, _ := newTestAdapter(t, dir, nil)
	feed(a, set, tfHoldout, correct)
	if res := a.TryPromote(true); res.Outcome != OutcomePromoted {
		t.Fatalf("setup promotion failed: %q", res.Outcome)
	}
	genBundle := filepath.Join(dir, persist.GenDirName(1), "bundle.gob")
	data, err := os.ReadFile(genBundle)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(genBundle, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	b, _, info, err := persist.ResolveBundle(dir)
	if err != nil || b == nil {
		t.Fatalf("resolution failed entirely: %v", err)
	}
	if !info.Fallback || info.Generation != 0 {
		t.Fatalf("resolved %+v, want fallback to base", info)
	}
}

func TestNewRejectsMismatchedSidecar(t *testing.T) {
	dir := t.TempDir()
	b, set := buildFixture(23)
	set.FrontEnds[1].Name = "WRONG"
	if err := SaveSet(dir, set); err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveBundle(dir, b, persist.Manifest{Seed: 23, Scale: "test"}); err != nil {
		t.Fatal(err)
	}
	h := newHost(t, dir)
	if _, err := New(Config{Dir: dir, Policy: DefaultPolicy(), Swap: h.swap, Current: h.current}); err == nil {
		t.Fatal("mismatched sidecar accepted")
	}
}

func TestNewRejectsMissingSidecar(t *testing.T) {
	dir := t.TempDir()
	b, _ := buildFixture(24)
	if err := persist.SaveBundle(dir, b, persist.Manifest{Seed: 24, Scale: "test"}); err != nil {
		t.Fatal(err)
	}
	h := newHost(t, dir)
	_, err := New(Config{Dir: dir, Policy: DefaultPolicy(), Swap: h.swap, Current: h.current})
	if !errors.Is(err, ErrNoSet) {
		t.Fatalf("err %v, want ErrNoSet", err)
	}
}

func TestObserveRejectsPartialBattery(t *testing.T) {
	dir := t.TempDir()
	_, set := writeFixture(t, dir, 25)
	a, _ := newTestAdapter(t, dir, nil)
	// Only front-end 0 of 2: a partial battery must be dropped.
	a.Observe(
		map[int]*sparse.Vector{0: set.FrontEnds[0].Holdout[0]},
		map[int][]float64{0: {1, -1, -1}},
	)
	if st := a.Status(); st.Buffered != 0 {
		t.Fatalf("partial battery buffered: %+v", st)
	}
}
