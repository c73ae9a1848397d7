package vsm

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/frontend"
)

// chaosExtract runs ExtractChecked under a fault plan and returns the
// result after restoring the clean state.
func chaosExtract(t *testing.T, plan string, opt ExtractOptions) (*Features, error) {
	t.Helper()
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	p, err := faultinject.ParsePlan(plan)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	restore := faultinject.Enable(p)
	defer restore()
	return ExtractChecked(fe, c, opt)
}

func TestQuarantineSkipsCorruptUtterances(t *testing.T) {
	// Inject a handful of lattice corruptions (well under the 5% default
	// cap: the tiny corpus decodes 23 langs × 16 utts = 368 utterances).
	f, err := chaosExtract(t, "seed=3; frontend.decode:error:every=100", ExtractOptions{Seed: 7})
	if err != nil {
		t.Fatalf("extraction failed instead of quarantining: %v", err)
	}
	if len(f.Quarantined) == 0 {
		t.Fatal("no utterances quarantined despite injected faults")
	}
	clean := mustExtract(t, frontend.New("CZ", frontend.ANNHMM, 43, 5), tinyCorpus(), ExtractOptions{Seed: 7})
	for _, q := range f.Quarantined {
		if q.Err == "" {
			t.Fatalf("quarantined item %d has no error text", q.ItemID)
		}
		// Quarantined items keep a placeholder so downstream shapes hold.
		if !f.Has(q.ItemID) {
			t.Fatalf("quarantined item %d missing from the cache", q.ItemID)
		}
		if f.Vector(q.ItemID).NNZ() != 0 {
			t.Fatalf("quarantined item %d has a non-empty supervector", q.ItemID)
		}
		if clean.Vector(q.ItemID).NNZ() == 0 {
			t.Fatalf("item %d is empty even in the clean run — bad test premise", q.ItemID)
		}
	}
}

func TestQuarantinedUtteranceKeepsEmptyBestPath(t *testing.T) {
	f, err := chaosExtract(t, "seed=3; frontend.decode:error:every=100", ExtractOptions{Seed: 7, KeepBestPath: true})
	if err != nil {
		t.Fatalf("extraction failed instead of quarantining: %v", err)
	}
	if len(f.Quarantined) == 0 {
		t.Fatal("no utterances quarantined despite injected faults")
	}
	bad := make(map[int]bool)
	for _, q := range f.Quarantined {
		bad[q.ItemID] = true
	}
	c := tinyCorpus()
	for _, s := range []*corpus.Split{c.Train, c.AllDev(), c.AllTest()} {
		for i, path := range f.BestPaths(s) {
			if id := s.Items[i].ID; bad[id] != (len(path) == 0) {
				t.Fatalf("item %d: quarantined=%v but kept a %d-phone path", id, bad[id], len(path))
			}
		}
	}
}

func TestQuarantineCapFailsThePhase(t *testing.T) {
	// Fail every third decode: far above any sane cap.
	_, err := chaosExtract(t, "seed=3; frontend.decode:error:every=3", ExtractOptions{Seed: 7})
	if err == nil {
		t.Fatal("mass corruption did not fail the phase")
	}
	if !strings.Contains(err.Error(), "quarantined") || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("cap error is unhelpful: %v", err)
	}
}

func TestExtractCleanRunHasNoQuarantine(t *testing.T) {
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	f, err := ExtractChecked(fe, c, ExtractOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Quarantined) != 0 {
		t.Fatalf("clean run quarantined %d utterances", len(f.Quarantined))
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c := tinyCorpus()
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 5)
	f := mustExtract(t, fe, c, ExtractOptions{Seed: 7})
	snap := f.Snapshot()
	r, err := RestoreFeatures(fe, snap)
	if err != nil {
		t.Fatalf("RestoreFeatures: %v", err)
	}
	for _, it := range c.Train.Items {
		a, b := f.Vector(it.ID), r.Vector(it.ID)
		if a.NNZ() != b.NNZ() {
			t.Fatalf("item %d: NNZ %d != %d", it.ID, a.NNZ(), b.NNZ())
		}
		for k := range a.Idx {
			if a.Idx[k] != b.Idx[k] || a.Val[k] != b.Val[k] {
				t.Fatalf("item %d differs after restore", it.ID)
			}
		}
	}
	if r.TF == nil {
		t.Fatal("TFLLR lost in snapshot round trip")
	}

	// Wrong front-end: refused.
	other := frontend.New("HU", frontend.ANNHMM, 43, 5)
	if _, err := RestoreFeatures(other, snap); err == nil {
		t.Fatal("snapshot restored into the wrong front-end")
	}
	wrongDim := frontend.New("CZ", frontend.ANNHMM, 61, 5)
	if _, err := RestoreFeatures(wrongDim, snap); err == nil {
		t.Fatal("snapshot restored into a different feature space")
	}
}
