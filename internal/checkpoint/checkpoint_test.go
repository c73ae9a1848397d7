package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/persist"
)

type payload struct {
	Name string
	Vals []float64
}

var testMeta = Meta{Scale: "tiny", Seed: 42}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, testMeta)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRoundTripAndGenerations(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if s.Generation() != 0 || s.Len() != 0 {
		t.Fatalf("fresh store: gen=%d len=%d", s.Generation(), s.Len())
	}
	if err := s.Save("alpha", &payload{Name: "a", Vals: []float64{1.5, -2.25}}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save("beta", &payload{Name: "b", Vals: []float64{3}}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if s.Generation() != 2 || s.Len() != 2 {
		t.Fatalf("after two saves: gen=%d len=%d", s.Generation(), s.Len())
	}

	// Reopen: the newest generation carries both entries.
	s2 := openStore(t, dir)
	if s2.Generation() != 2 || s2.Len() != 2 || s2.FellBack() != 0 {
		t.Fatalf("reopened: gen=%d len=%d fellBack=%d", s2.Generation(), s2.Len(), s2.FellBack())
	}
	var got payload
	if err := s2.Load("alpha", &got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Name != "a" || len(got.Vals) != 2 || got.Vals[0] != 1.5 || got.Vals[1] != -2.25 {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// Re-saving a key makes a new generation; the old entry file stays.
	if err := s2.Save("alpha", &payload{Name: "a2"}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s3 := openStore(t, dir)
	if s3.Generation() != 3 {
		t.Fatalf("gen after re-save: %d", s3.Generation())
	}
	if err := s3.Load("alpha", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "a2" {
		t.Fatalf("re-saved key loaded stale value: %+v", got)
	}
}

func TestLoadMissingKey(t *testing.T) {
	s := openStore(t, t.TempDir())
	var got payload
	if err := s.Load("nope", &got); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if s.Has("nope") {
		t.Fatal("Has reported a missing key")
	}
}

func TestMetaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save("k", &payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Meta{Scale: "tiny", Seed: 7}); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("seed mismatch: %v", err)
	}
	if _, err := Open(dir, Meta{Scale: "small", Seed: 42}); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("scale mismatch: %v", err)
	}
}

// corruptNewest flips a byte in the newest file matching pattern.
func corruptNewest(t *testing.T, dir, pattern string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(names) == 0 {
		t.Fatalf("glob %s: %v (%d matches)", pattern, err, len(names))
	}
	path := names[len(names)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFallbackOnCorruptNewestManifest(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save("k", &payload{Name: "gen1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("k", &payload{Name: "gen2"}); err != nil {
		t.Fatal(err)
	}
	corruptNewest(t, dir, "MANIFEST-000002.json")

	s2 := openStore(t, dir)
	if s2.FellBack() != 1 {
		t.Fatalf("fellBack=%d, want 1", s2.FellBack())
	}
	if s2.Generation() != 1 {
		t.Fatalf("fell back to gen %d, want 1", s2.Generation())
	}
	var got payload
	if err := s2.Load("k", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "gen1" {
		t.Fatalf("fallback loaded %q, want gen1", got.Name)
	}
}

func TestFallbackOnCorruptNewestEntry(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save("k", &payload{Name: "gen1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("k", &payload{Name: "gen2"}); err != nil {
		t.Fatal(err)
	}
	// Damage generation 2's entry file; its manifest is intact, but
	// verifyGeneration must reject the generation and fall back.
	corruptNewest(t, dir, "k.g000002.ckpt")

	s2 := openStore(t, dir)
	if s2.FellBack() != 1 || s2.Generation() != 1 {
		t.Fatalf("fellBack=%d gen=%d, want 1/1", s2.FellBack(), s2.Generation())
	}
	var got payload
	if err := s2.Load("k", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "gen1" {
		t.Fatalf("fallback loaded %q", got.Name)
	}
}

func TestTornManifestTailFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save("k", &payload{Name: "gen1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("k", &payload{Name: "gen2"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "MANIFEST-000002.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	if s2.FellBack() != 1 || s2.Generation() != 1 {
		t.Fatalf("fellBack=%d gen=%d, want 1/1", s2.FellBack(), s2.Generation())
	}
}

func TestCrashBeforePublishLeavesPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save("k", &payload{Name: "gen1"}); err != nil {
		t.Fatal(err)
	}

	plan, err := faultinject.ParsePlan("seed=1; checkpoint.save.prepublish:panic:every=1,count=1")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Enable(plan)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("prepublish panic did not fire")
			}
		}()
		_ = s.Save("k", &payload{Name: "gen2"})
	}()
	restore()

	// The process "died" before the manifest rename: a fresh Open must see
	// generation 1 with no fallback (the torn state is invisible — only a
	// stray .tmp and an unreferenced entry file remain).
	s2 := openStore(t, dir)
	if s2.Generation() != 1 || s2.FellBack() != 0 {
		t.Fatalf("gen=%d fellBack=%d, want 1/0", s2.Generation(), s2.FellBack())
	}
	var got payload
	if err := s2.Load("k", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "gen1" {
		t.Fatalf("loaded %q, want gen1", got.Name)
	}
}

func TestCrashAfterPublishKeepsNewGeneration(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save("k", &payload{Name: "gen1"}); err != nil {
		t.Fatal(err)
	}

	plan, err := faultinject.ParsePlan("seed=1; checkpoint.save.postpublish:panic:every=1,count=1")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Enable(plan)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("postpublish panic did not fire")
			}
		}()
		_ = s.Save("k", &payload{Name: "gen2"})
	}()
	restore()

	// The manifest rename had already happened: the new generation is the
	// durable one.
	s2 := openStore(t, dir)
	if s2.Generation() != 2 || s2.FellBack() != 0 {
		t.Fatalf("gen=%d fellBack=%d, want 2/0", s2.Generation(), s2.FellBack())
	}
	var got payload
	if err := s2.Load("k", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "gen2" {
		t.Fatalf("loaded %q, want gen2", got.Name)
	}
}

func TestSaveErrorFaultAbortsCleanly(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save("k", &payload{Name: "gen1"}); err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.ParsePlan("seed=1; checkpoint.save:error:every=1,count=1")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Enable(plan)
	saveErr := s.Save("k", &payload{Name: "gen2"})
	restore()
	if saveErr == nil {
		t.Fatal("injected save error did not surface")
	}
	if s.Generation() != 1 {
		t.Fatalf("aborted save advanced the generation to %d", s.Generation())
	}
	var got payload
	if err := s.Load("k", &got); err != nil || got.Name != "gen1" {
		t.Fatalf("store damaged by aborted save: %v %+v", err, got)
	}
}

func TestLoadCorruptEntryIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save("k", &payload{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the only generation's entry after Open verified it (mid-run
	// disk rot): Load must report ErrCorrupt, not decode garbage.
	corruptNewest(t, dir, "k.g000001.ckpt")
	var got payload
	err := s.Load("k", &got)
	if err == nil {
		t.Fatal("corrupt entry loaded")
	}
	if !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("error %v is not persist.ErrCorrupt", err)
	}
}

func TestPruneKeepsNewestGenerations(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for i, name := range []string{"a", "b", "a", "c"} {
		if err := s.Save(name, &payload{Name: name, Vals: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Prune(1); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var manifests, ckpts []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "MANIFEST-") {
			manifests = append(manifests, de.Name())
		}
		if strings.HasSuffix(de.Name(), ".ckpt") {
			ckpts = append(ckpts, de.Name())
		}
	}
	if len(manifests) != 1 || manifests[0] != "MANIFEST-000004.json" {
		t.Fatalf("manifests after prune: %v", manifests)
	}
	// Generation 4 references a.g000003 (re-save), b.g000002, c.g000004 —
	// the stale a.g000001 must be gone.
	if len(ckpts) != 3 {
		t.Fatalf("ckpt files after prune: %v", ckpts)
	}
	s2 := openStore(t, dir)
	if s2.Generation() != 4 || s2.Len() != 3 {
		t.Fatalf("pruned store: gen=%d len=%d", s2.Generation(), s2.Len())
	}
	for _, name := range []string{"a", "b", "c"} {
		var got payload
		if err := s2.Load(name, &got); err != nil {
			t.Fatalf("after prune, %s: %v", name, err)
		}
	}
}

// TestPruneKeepsCorruptSurvivorsFiles: when a generation Prune keeps has
// an unreadable record, the entries it references are unknown, so no entry
// file may be swept — and the readable generation behind it stays the
// fallback.
func TestPruneKeepsCorruptSurvivorsFiles(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save("a", &payload{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("b", &payload{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST-000002.json"), []byte("overwritten"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Prune(1); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	for _, f := range []string{"a.g000001.ckpt", "b.g000002.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("prune swept %s behind a corrupt survivor: %v", f, err)
		}
	}
	s2 := openStore(t, dir)
	var got payload
	if s2.Generation() != 1 || s2.Load("a", &got) != nil || got.Name != "a" {
		t.Fatalf("after prune: gen=%d a=%+v, want the generation-1 fallback", s2.Generation(), got)
	}
}

func TestKeysSortedAndSanitizedFiles(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for _, k := range []string{"dba-v3-DBA-M1", "features/odd name", "baseline"} {
		if err := s.Save(k, &payload{Name: k}); err != nil {
			t.Fatal(err)
		}
	}
	// The slashed/spaced key must live in a sanitized file but round-trip
	// under its original name.
	var got payload
	if err := s.Load("features/odd name", &got); err != nil || got.Name != "features/odd name" {
		t.Fatalf("sanitized key round trip: %v %+v", err, got)
	}
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		if strings.ContainsAny(de.Name(), "/ ") {
			t.Fatalf("unsanitized file name %q", de.Name())
		}
	}
}
