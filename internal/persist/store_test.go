package persist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The generation store suite: the store itself over sealed-file payloads,
// then bundle roots (gen-%06d directory payloads) and their resolution.
// internal/checkpoint's suite drives the same store through its keyed
// entries and fault sites.

// fileStore is a store whose payloads are sealed files named v<gen>.
func fileStore(dir string) *Store {
	return NewStore(dir, func(name string) (int64, bool) {
		rest, ok := strings.CutPrefix(name, "v")
		g, err := strconv.ParseInt(rest, 10, 64)
		return g, ok && err == nil
	})
}

// commitFile writes payload v<gen> holding val and commits record gen
// over it.
func commitFile(t testing.TB, s *Store, gen int64, val string) *Record {
	t.Helper()
	ref, err := s.WritePayload("v"+strconv.FormatInt(gen, 10), val)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{Generation: gen, Meta: json.RawMessage(`"run-7"`), Entries: map[string]Ref{"k": ref}}
	if err := s.Commit(rec, ""); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestCommitRecordRoundTrip(t *testing.T) {
	s := fileStore(t.TempDir())
	commitFile(t, s, 2, "two")
	want := commitFile(t, s, 3, "three")
	got, skipped, err := s.Open()
	if err != nil || skipped != 0 {
		t.Fatalf("Open: skipped %d, err %v", skipped, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip %+v != %+v", got, want)
	}
	r, err := s.OpenPayload(got.Entries["k"], "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var v string
	if err := r.Decode(&v); err != nil || v != "three" {
		t.Fatalf("payload %q (err %v), want three", v, err)
	}
}

func TestTornCommitRecordIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := fileStore(dir)
	commitFile(t, s, 1, "one")
	path := filepath.Join(dir, recordName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.readRecord(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn record: %v, want ErrCorrupt", err)
	}
	if rec, skipped, err := s.Open(); rec != nil || skipped != 1 || err != nil {
		t.Fatalf("Open over a torn record: %+v skipped %d err %v", rec, skipped, err)
	}
	// Well-sealed records that lie about their number, or name a payload
	// outside the store (or none), are corrupt too.
	for _, bad := range []string{
		`{"format_version":1,"generation":2,"entries":{}}`,
		`{"format_version":1,"generation":1,"entries":{"k":{"file":"../v1"}}}`,
		`{"format_version":1,"generation":1,"entries":{"k":{"file":""}}}`,
	} {
		if err := os.WriteFile(path, Seal([]byte(bad)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.readRecord(1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("record %s: %v, want ErrCorrupt", bad, err)
		}
	}
}

// saveGen exports one trained bundle into root/<name> (or the root for
// BaseGenDir), the layout a promotion stages, and returns the SHA-256 of
// its bundle file.
func saveGen(t *testing.T, root, name string, seed uint64) string {
	t.Helper()
	b, _ := trainedBundle(t, seed)
	dir := filepath.Join(root, name)
	if err := SaveBundle(dir, b, Manifest{Seed: seed, Scale: "test"}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(filepath.Join(dir, BundleName))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return r.SHA256()
}

// commitGen commits record gen on root naming dir, pinned to sha, with
// last-known-good lkg.
func commitGen(t *testing.T, root string, gen int64, dir, sha, lkg string) {
	t.Helper()
	if err := CommitBundle(BundleRoot(root), gen, dir, sha, lkg, ""); err != nil {
		t.Fatal(err)
	}
}

func TestParseGeneration(t *testing.T) {
	cases := []struct {
		name string
		gen  int64
		ok   bool
	}{
		{GenDirName(7), 7, true},
		{"quarantine-" + GenDirName(12), 12, true},
		{"gen-", 0, false},
		{"gen-x", 0, false},
		{"bundle.gob", 0, false},
		{BaseGenDir, 0, false},
	}
	for _, tc := range cases {
		g, ok := ParseGeneration(tc.name)
		if ok != tc.ok || (ok && g != tc.gen) {
			t.Errorf("ParseGeneration(%q) = %d,%v, want %d,%v", tc.name, g, ok, tc.gen, tc.ok)
		}
	}
}

func TestResolveBundleLegacyRoot(t *testing.T) {
	root := t.TempDir()
	saveGen(t, root, BaseGenDir, 1)
	_, _, info, err := ResolveBundle(root)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 0 || info.DirName != BaseGenDir || info.Fallback {
		t.Fatalf("legacy root resolved as %+v", info)
	}
}

func TestResolveBundlePointerTarget(t *testing.T) {
	root := t.TempDir()
	saveGen(t, root, BaseGenDir, 1)
	sha := saveGen(t, root, GenDirName(1), 2)
	commitGen(t, root, 1, GenDirName(1), sha, BaseGenDir)
	_, m, info, err := ResolveBundle(root)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.DirName != GenDirName(1) || info.Fallback {
		t.Fatalf("resolved %+v", info)
	}
	if info.LastKnownGood != BaseGenDir {
		t.Fatalf("last-known-good %q", info.LastKnownGood)
	}
	if m.Seed != 2 {
		t.Fatalf("loaded seed %d, want the generation's bundle", m.Seed)
	}
	// A record whose pinned SHA-256 disagrees with the directory it names
	// does not serve that directory.
	commitGen(t, root, 2, GenDirName(1), strings.Repeat("0", 64), BaseGenDir)
	if _, m, info, err := ResolveBundle(root); err != nil || !info.Fallback || info.Generation != 0 || m.Seed != 1 {
		t.Fatalf("SHA mismatch resolved %+v (err %v), want last-known-good base", info, err)
	}
}

func TestResolveBundleFallsBackToLastKnownGood(t *testing.T) {
	root := t.TempDir()
	saveGen(t, root, BaseGenDir, 1)
	saveGen(t, root, GenDirName(1), 2)
	// The record names a generation that was never written; its recorded
	// last-known-good must serve.
	commitGen(t, root, 2, GenDirName(2), "", GenDirName(1))
	_, m, info, err := ResolveBundle(root)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fallback || info.Generation != 1 || m.Seed != 2 {
		t.Fatalf("resolved %+v (seed %d), want fallback to gen 1", info, m.Seed)
	}
}

// TestResolveBundleNeverServesUncommittedGeneration: a crash during gen 2's
// gates leaves it staged but uncommitted, and the newest commit record is
// torn. Resolution must walk the committed records — gen 1 serves — and
// never pick the staged candidate, which never passed its gates.
func TestResolveBundleNeverServesUncommittedGeneration(t *testing.T) {
	root := t.TempDir()
	saveGen(t, root, BaseGenDir, 1)
	commitGen(t, root, 1, GenDirName(1), saveGen(t, root, GenDirName(1), 2), BaseGenDir)
	saveGen(t, root, GenDirName(2), 3)
	commitGen(t, root, 2, GenDirName(2), "", GenDirName(1))
	path := filepath.Join(root, recordName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, m, info, err := ResolveBundle(root)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || m.Seed != 2 || !info.Fallback {
		t.Fatalf("resolved %+v (seed %d), want committed generation 1 as a fallback", info, m.Seed)
	}
}

func TestResolveBundleFallsBackToBase(t *testing.T) {
	root := t.TempDir()
	saveGen(t, root, BaseGenDir, 1)
	// A record naming a missing generation, no last-known-good, nothing
	// older.
	commitGen(t, root, 5, GenDirName(5), "", "")
	_, _, info, err := ResolveBundle(root)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fallback || info.Generation != 0 || info.DirName != BaseGenDir {
		t.Fatalf("resolved %+v, want base fallback", info)
	}
	// Nothing loadable anywhere is an error, not a nil bundle.
	empty := t.TempDir()
	commitGen(t, empty, 1, GenDirName(1), "", "")
	if _, _, _, err := ResolveBundle(empty); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty root resolved: %v", err)
	}
	// The error says why the base failed: a root whose base export is
	// from another format names the format and the re-export.
	mpath := filepath.Join(root, ManifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["format_version"] = 99
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = ResolveBundle(root)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bundle format 99") || !strings.Contains(err.Error(), "re-export") {
		t.Fatalf("root with a format-99 base: err=%v, want ErrCorrupt naming the format and the re-export", err)
	}
}

// mkGens creates empty directories root/<name> for each name.
func mkGens(t *testing.T, root string, names ...string) {
	t.Helper()
	for _, n := range names {
		if err := os.MkdirAll(filepath.Join(root, n), 0o755); err != nil {
			t.Fatal(err)
		}
	}
}

// listRoot returns the sorted names in root.
func listRoot(t *testing.T, root string) []string {
	t.Helper()
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestQuarantineGeneration(t *testing.T) {
	root := t.TempDir()
	mkGens(t, root, GenDirName(1))
	st := BundleRoot(root)
	q, err := st.Quarantine(GenDirName(1))
	if err != nil {
		t.Fatal(err)
	}
	if q != "quarantine-"+GenDirName(1) {
		t.Fatalf("quarantined as %q", q)
	}
	if got := listRoot(t, root); !reflect.DeepEqual(got, []string{q}) {
		t.Fatalf("root after quarantine: %v", got)
	}
	if _, err := st.Quarantine(q); err == nil {
		t.Fatal("double quarantine accepted")
	}
	if _, err := st.Quarantine("bundle.gob"); err == nil {
		t.Fatal("non-generation name accepted")
	}
}

func TestNextGenerationNeverReusesNumbers(t *testing.T) {
	root := t.TempDir()
	st := BundleRoot(root)
	next := func(want int64) {
		t.Helper()
		if got, err := st.Next(); err != nil || got != want {
			t.Fatalf("Next = %d (err %v), want %d", got, err, want)
		}
	}
	next(1)
	// A staged, uncommitted candidate's number is taken.
	mkGens(t, root, GenDirName(2))
	next(3)
	// A quarantined candidate's number stays burned.
	if _, err := st.Quarantine(GenDirName(2)); err != nil {
		t.Fatal(err)
	}
	next(3)
	// A record alone also counts (its directory may have been pruned).
	commitGen(t, root, 6, GenDirName(6), "", "")
	next(7)
}

func TestPrunePinsSurvive(t *testing.T) {
	root := t.TempDir()
	lkg := BaseGenDir
	for g := int64(1); g <= 5; g++ {
		mkGens(t, root, GenDirName(g))
		commitGen(t, root, g, GenDirName(g), "", lkg)
		lkg = GenDirName(g)
	}
	// keep=1 with gens 5 (serving) and 1 (an old last-known-good) pinned:
	// record 5 survives with the gen 4 it names, gen 1 is pinned, and
	// 3 and 2 go.
	if err := BundleRoot(root).Prune(1, GenDirName(5), GenDirName(1)); err != nil {
		t.Fatal(err)
	}
	want := []string{recordName(5), GenDirName(1), GenDirName(4), GenDirName(5)}
	if got := listRoot(t, root); !reflect.DeepEqual(got, want) {
		t.Fatalf("after prune: %v, want %v", got, want)
	}
	// A record naming nothing but pinned payloads does not use up keep.
	root = t.TempDir()
	mkGens(t, root, GenDirName(1), GenDirName(2), GenDirName(3))
	commitGen(t, root, 1, GenDirName(1), "", BaseGenDir)
	commitGen(t, root, 2, GenDirName(2), "", GenDirName(1))
	commitGen(t, root, 3, GenDirName(3), "", GenDirName(2))
	if err := BundleRoot(root).Prune(1, GenDirName(3), GenDirName(2)); err != nil {
		t.Fatal(err)
	}
	want = []string{recordName(2), recordName(3), GenDirName(1), GenDirName(2), GenDirName(3)}
	if got := listRoot(t, root); !reflect.DeepEqual(got, want) {
		t.Fatalf("after pinned prune: %v, want %v", got, want)
	}
}

func TestPruneCollectsOrphanedStagedDir(t *testing.T) {
	root := t.TempDir()
	saveGen(t, root, BaseGenDir, 1)
	mkGens(t, root, GenDirName(1), GenDirName(2))
	commitGen(t, root, 1, GenDirName(1), "", BaseGenDir)
	// gen 2 was staged and never committed (a crash during its gates).
	if err := BundleRoot(root).Prune(4); err != nil {
		t.Fatal(err)
	}
	want := []string{recordName(1), BundleName, GenDirName(1), ManifestName}
	if got := listRoot(t, root); !reflect.DeepEqual(got, want) {
		t.Fatalf("after prune: %v, want %v", got, want)
	}
}

func TestPruneBoundsQuarantine(t *testing.T) {
	root := t.TempDir()
	for g := int64(1); g <= 4; g++ {
		mkGens(t, root, "quarantine-"+GenDirName(g))
	}
	if err := BundleRoot(root).Prune(2); err != nil {
		t.Fatal(err)
	}
	// Newest two quarantined candidates survive for forensics.
	want := []string{"quarantine-" + GenDirName(3), "quarantine-" + GenDirName(4)}
	if got := listRoot(t, root); !reflect.DeepEqual(got, want) {
		t.Fatalf("after prune: %v, want %v", got, want)
	}
}
