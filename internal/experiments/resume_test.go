package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dba"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/vsm"
)

// resumeSeed keeps the kill-and-resume suite on one deterministic run.
const resumeSeed = 42

// renderRun builds a tiny-scale pipeline (checkpointed when ck != nil)
// and renders the sections the suite pins: Table 1, the DBA-M1 sweep,
// and Table 4 at V=3. The returned string is the referee — resumed runs
// must reproduce it byte-for-byte.
func renderRun(t *testing.T, ck *Checkpointer) string {
	t.Helper()
	p, err := BuildPipelineCK(ScaleTiny, resumeSeed, ck)
	if err != nil {
		t.Fatalf("BuildPipelineCK: %v", err)
	}
	var b strings.Builder
	fmt.Fprintln(&b, RunTable1(p))
	fmt.Fprintln(&b, RunTableDBA(p, dba.M1))
	fmt.Fprintln(&b, RunTable4(p, 3))
	return b.String()
}

// goldenRun memoizes the uninterrupted, checkpoint-free reference output.
var goldenRun string

func golden(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		// Matches the package convention: pipeline builds are too slow for
		// -short. internal/e2e's crash-resume drill covers kill-and-resume.
		t.Skip("pipeline build is slow")
	}
	if goldenRun == "" {
		goldenRun = renderRun(t, nil)
	}
	return goldenRun
}

func openCK(t *testing.T, dir string) (*Checkpointer, *checkpoint.Store) {
	t.Helper()
	store, err := checkpoint.Open(dir, checkpoint.Meta{Scale: ScaleTiny.String(), Seed: resumeSeed})
	if err != nil {
		t.Fatalf("checkpoint.Open: %v", err)
	}
	return &Checkpointer{Store: store}, store
}

// runKilled executes a checkpointed run under a chaos plan that must kill
// it (panic), and reports what the run got done before dying.
func runKilled(t *testing.T, dir, plan string) {
	t.Helper()
	p, err := faultinject.ParsePlan(plan)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", plan, err)
	}
	restore := faultinject.Enable(p)
	defer restore()
	defer func() {
		if recover() == nil {
			t.Fatalf("chaos plan %q did not kill the run", plan)
		}
	}()
	ck, _ := openCK(t, dir)
	renderRun(t, ck)
}

// TestKillAndResumeBitIdentical is the tentpole referee: a run killed at
// a phase boundary (or in the middle of one) and resumed from its
// checkpoint directory must produce byte-identical tables to an
// uninterrupted run. Kill points cover decode mid-front-end, both sides
// of the manifest commit point during the extraction saves, the middle of
// the DBA sweep, and just before fusion.
func TestKillAndResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		plan string
	}{
		// Saves in a tiny full run land in phase order: 6 feature
		// snapshots, baseline, baseline-scores, the DBA sweep outcomes,
		// Table 4. after=N (with count=1) fires on the N+1th hit of the
		// site, so the plans below pin kills to specific saves.
		{"decode-mid-frontend", "seed=1; frontend.decode:panic:every=1,after=150,count=1"},
		{"extract-save-prepublish", "seed=1; checkpoint.save.prepublish:panic:every=1,after=2,count=1"},
		{"extract-save-postpublish", "seed=1; checkpoint.save.postpublish:panic:every=1,after=4,count=1"},
		{"dba-sweep-prepublish", "seed=1; checkpoint.save.prepublish:panic:every=1,after=10,count=1"},
		{"pre-fusion-postpublish", "seed=1; checkpoint.save.postpublish:panic:every=1,after=14,count=1"},
	}
	want := golden(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			runKilled(t, dir, tc.plan)

			ck, store := openCK(t, dir)
			if tc.name != "decode-mid-frontend" && store.Generation() == 0 {
				t.Fatal("killed run left no checkpoint generations to resume from")
			}
			got := renderRun(t, ck)
			if got != want {
				t.Fatalf("resumed output differs from uninterrupted run\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
		})
	}
}

// TestResumeFromCorruptNewestGeneration damages the newest manifest of a
// completed run: Open must fall back to the previous generation and the
// rerun must still match the golden output exactly.
func TestResumeFromCorruptNewestGeneration(t *testing.T) {
	want := golden(t)
	dir := t.TempDir()
	ck, _ := openCK(t, dir)
	if got := renderRun(t, ck); got != want {
		t.Fatalf("checkpointed run differs from plain run\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	manifests, err := filepath.Glob(filepath.Join(dir, "MANIFEST-*.json"))
	if err != nil || len(manifests) < 2 {
		t.Fatalf("need ≥2 generations, have %d (%v)", len(manifests), err)
	}
	newest := manifests[len(manifests)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x08
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, store := openCK(t, dir)
	if store.FellBack() < 1 {
		t.Fatalf("fellBack=%d, want ≥1", store.FellBack())
	}
	if store.Generation() == 0 {
		t.Fatal("no intact generation survived")
	}
	if got := renderRun(t, ck2); got != want {
		t.Fatalf("fallback run differs from golden\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestFullyCheckpointedRerunIsIdentical reruns on a complete checkpoint
// directory: every phase restores, nothing recomputes, same bytes out.
func TestFullyCheckpointedRerunIsIdentical(t *testing.T) {
	want := golden(t)
	dir := t.TempDir()
	ck, _ := openCK(t, dir)
	if got := renderRun(t, ck); got != want {
		t.Fatal("first checkpointed run differs from plain run")
	}
	ck2, store := openCK(t, dir)
	gen := store.Generation()
	if gen == 0 {
		t.Fatal("no generations after a full run")
	}
	if got := renderRun(t, ck2); got != want {
		t.Fatal("fully-checkpointed rerun differs from golden")
	}
	if store.Generation() != gen {
		t.Fatalf("fully-cached rerun published %d new generations", store.Generation()-gen)
	}
}

// TestBuildAndExportDecodeEachUtteranceOnce counts decodes, the paper's
// cost unit: building a pipeline and exporting its bundle (cascade
// included) decodes every utterance once per front-end, a rerun on the
// complete checkpoint decodes nothing and exports the same bundle bytes,
// and a cascade front-end snapshot without its 1-best paths is refused
// and re-extracted rather than decoded a second time for them.
func TestBuildAndExportDecodeEachUtteranceOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline build is slow")
	}
	plainDir := t.TempDir()
	if _, err := sharedPipeline(t).ExportModels(plainDir, ""); err != nil {
		t.Fatal(err)
	}
	plain := readBundle(t, plainDir)

	decoded := obs.GetCounter("decode.utterances")
	recomputed := obs.GetCounter("checkpoint.recompute")
	buildAndExport := func(ck *Checkpointer) (decodes int64, bundle []byte, p *Pipeline) {
		t.Helper()
		before := decoded.Value()
		p, err := BuildPipelineCK(ScaleTiny, resumeSeed, ck)
		if err != nil {
			t.Fatalf("BuildPipelineCK: %v", err)
		}
		dir := t.TempDir()
		if _, err := p.ExportModels(dir, ""); err != nil {
			t.Fatalf("ExportModels: %v", err)
		}
		return decoded.Value() - before, readBundle(t, dir), p
	}

	dir := t.TempDir()
	ck, store := openCK(t, dir)
	n, bundle, p := buildAndExport(ck)
	utts := int64(p.Corpus.Train.Len() + p.Corpus.AllDev().Len() + p.Corpus.AllTest().Len())
	if want := int64(len(p.FEs)) * utts; n != want {
		t.Fatalf("build + export decoded %d utterances, want %d front-ends × %d", n, len(p.FEs), utts)
	}
	if !bytes.Equal(bundle, plain) {
		t.Fatal("checkpointed export differs from a plain export")
	}

	ck2, _ := openCK(t, dir)
	if n, bundle, _ = buildAndExport(ck2); n != 0 {
		t.Fatalf("rerun on a complete checkpoint decoded %d utterances", n)
	}
	if !bytes.Equal(bundle, plain) {
		t.Fatal("fully-checkpointed export differs from a plain export")
	}

	// Strip the kept paths from the cascade front-end's snapshot: the
	// rerun must refuse it and re-extract that front-end only.
	key := "features-" + CascadeFrontEnd
	var snap vsm.FeaturesSnapshot
	if err := store.Load(key, &snap); err != nil {
		t.Fatal(err)
	}
	snap.BestPaths = nil
	if err := store.Save(key, &snap); err != nil {
		t.Fatal(err)
	}
	ck3, _ := openCK(t, dir)
	rec := recomputed.Value()
	if n, bundle, _ = buildAndExport(ck3); n != utts {
		t.Fatalf("rerun on a path-less %s snapshot decoded %d utterances, want %d", CascadeFrontEnd, n, utts)
	}
	if recomputed.Value() == rec {
		t.Fatal("a path-less cascade snapshot was not counted as a recompute")
	}
	if !bytes.Equal(bundle, plain) {
		t.Fatal("export after re-extraction differs from a plain export")
	}
}

func readBundle(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "bundle.gob"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIterativeResumeBitIdentical kills a multi-round iterative-DBA run
// between rounds and resumes it through the experiments-layer round
// checkpoints.
func TestIterativeResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline build is slow; internal/dba covers the hook in short mode")
	}
	// Reference: plain pipeline, no checkpoints.
	p, err := BuildPipelineCK(ScaleTiny, resumeSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := p.IterativeReport(p.IterativeDBA(3, dba.M2, 3))

	dir := t.TempDir()
	// Build the pipeline once so round checkpoints are the only thing the
	// killed run persists beyond phase state.
	func() {
		plan, err := faultinject.ParsePlan("seed=1; checkpoint.save.prepublish:panic:every=1,after=9,count=1")
		if err != nil {
			t.Fatal(err)
		}
		restore := faultinject.Enable(plan)
		defer restore()
		defer func() {
			if recover() == nil {
				t.Fatal("iterative kill plan did not fire")
			}
		}()
		ck, _ := openCK(t, dir)
		kp, err := BuildPipelineCK(ScaleTiny, resumeSeed, ck)
		if err != nil {
			t.Fatal(err)
		}
		kp.IterativeReport(kp.IterativeDBA(3, dba.M2, 3))
	}()

	ck, store := openCK(t, dir)
	if store.Generation() == 0 {
		t.Fatal("killed iterative run checkpointed nothing")
	}
	rp, err := BuildPipelineCK(ScaleTiny, resumeSeed, ck)
	if err != nil {
		t.Fatal(err)
	}
	got := rp.IterativeReport(rp.IterativeDBA(3, dba.M2, 3))
	if got != ref {
		t.Fatalf("resumed iterative report differs\n--- want ---\n%s\n--- got ---\n%s", ref, got)
	}
}
