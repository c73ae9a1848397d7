// Package checkpoint is the crash-safe snapshot store behind the
// experiment pipeline's checkpoint/resume support. The expensive phases —
// per-front-end decoding/supervector extraction, OVR SVM training,
// baseline scoring, every DBA boosting round, the fusion backend — run
// for minutes at full scale; a Store lets a killed run restart from the
// last completed phase boundary instead of from zero, with bit-identical
// final results (the resume-equivalence suite and the CI
// crash-resume-smoke job are the referees).
//
// # On-disk layout and crash safety
//
//	<dir>/
//	  MANIFEST-000007.json   newest generation manifest (sealed JSON)
//	  MANIFEST-000006.json   previous generation (kept for fallback)
//	  features-HU.g000001.ckpt   sealed gob entries (persist format)
//	  baseline.g000007.ckpt
//	  ...
//
// Every file is published with the write-rename protocol and carries the
// persist package's CRC32 + SHA-256 + length integrity footer. A Save is
// one new *generation*: the entry file lands first, then a new manifest —
// listing every entry of the generation with its size and SHA-256 — is
// written and renamed into place. The manifest rename is the commit
// point (manifest-last): a crash anywhere before it leaves the previous
// generation untouched; a crash after it leaves the new generation fully
// readable. Entry files are immutable once referenced — a re-saved key
// gets a fresh generation-stamped file — so older manifests always
// describe intact data.
//
// # Fallback
//
// Open walks the manifests newest-first and verifies each candidate
// generation completely: the manifest's own footer, then every listed
// entry's footer and SHA-256. The first generation that checks out wins;
// corrupt or torn newer generations are counted (FellBack, the
// checkpoint.fallback counter) and skipped, so a damaged newest
// checkpoint degrades the resume point instead of failing the run.
//
// # Fault sites
//
//	checkpoint.save             before any write (a fired error aborts the save cleanly)
//	checkpoint.save.prepublish  after all bytes are on disk, before the manifest rename
//	checkpoint.save.postpublish after the manifest rename (crash-after-commit)
//	checkpoint.load             entry load entry point
//	checkpoint.load.read        entry read stream (torn/partial reads)
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/persist"
)

// FormatVersion versions the manifest schema; readers reject others.
const FormatVersion = 1

// manifestPrefix names generation manifests: MANIFEST-%06d.json.
const manifestPrefix = "MANIFEST-"

// Meta binds a store to one experiment run. Resuming with a different
// scale or seed would silently mix incompatible state, so Open refuses.
type Meta struct {
	Scale string `json:"scale"`
	Seed  uint64 `json:"seed"`
}

// EntryRef locates and pins one entry of a generation.
type EntryRef struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// manifest is one generation's sealed JSON index.
type manifest struct {
	FormatVersion int                 `json:"format_version"`
	Generation    int                 `json:"generation"`
	Meta          Meta                `json:"meta"`
	Entries       map[string]EntryRef `json:"entries"`
}

// Errors callers branch on.
var (
	// ErrMetaMismatch: the directory holds checkpoints of a different
	// (scale, seed) run.
	ErrMetaMismatch = errors.New("checkpoint: store belongs to a different run")
	// ErrNotFound: the key has no entry in the loaded generation.
	ErrNotFound = errors.New("checkpoint: no such entry")
)

// Store is a generation-versioned checkpoint directory. All methods are
// safe for concurrent use (the extraction phase saves from pool workers).
type Store struct {
	dir  string
	meta Meta

	mu       sync.Mutex
	gen      int // latest good generation (0 = empty store)
	entries  map[string]EntryRef
	fellBack int // corrupt generations skipped at Open
}

// Open loads (or initializes) a checkpoint directory for the run
// described by meta. It walks existing generation manifests newest-first
// and adopts the first one that verifies completely; corrupt newer
// generations are skipped and counted. An empty directory yields an
// empty store at generation 0.
func Open(dir string, meta Meta) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &Store{dir: dir, meta: meta, entries: make(map[string]EntryRef)}

	names, err := manifestNames(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names { // newest first
		m, err := readManifest(filepath.Join(dir, name))
		if err == nil {
			err = s.verifyGeneration(m)
		}
		if err != nil {
			s.fellBack++
			obs.Inc("checkpoint.fallback")
			continue
		}
		if m.Meta != meta {
			return nil, fmt.Errorf("%w: dir holds scale=%q seed=%d, run wants scale=%q seed=%d",
				ErrMetaMismatch, m.Meta.Scale, m.Meta.Seed, meta.Scale, meta.Seed)
		}
		s.gen = m.Generation
		s.entries = m.Entries
		if s.entries == nil {
			s.entries = make(map[string]EntryRef)
		}
		break
	}
	return s, nil
}

// manifestNames lists generation manifests newest-first.
func manifestNames(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, de := range des {
		n := de.Name()
		if strings.HasPrefix(n, manifestPrefix) && strings.HasSuffix(n, ".json") {
			names = append(names, n)
		}
	}
	// Zero-padded generation numbers sort lexically; newest first.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// readManifest reads and verifies one sealed manifest file.
func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := persist.Unseal(data)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest JSON: %v", persist.ErrCorrupt, err)
	}
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("checkpoint: manifest format %d (want %d)", m.FormatVersion, FormatVersion)
	}
	return &m, nil
}

// verifyGeneration checks every entry a manifest references: presence,
// size, integrity footer, and the manifest-pinned SHA-256.
func (s *Store) verifyGeneration(m *manifest) error {
	for key, ref := range m.Entries {
		r, err := s.openEntry(ref, "")
		if err != nil {
			return fmt.Errorf("checkpoint: entry %q (%s): %w", key, ref.File, err)
		}
		r.Close()
	}
	return nil
}

// openEntry opens one entry file — one streaming pass checks its footer,
// size and manifest-pinned SHA-256 — positioned to decode its value.
func (s *Store) openEntry(ref EntryRef, faultSite string) (*persist.Reader, error) {
	r, err := persist.OpenAt(filepath.Join(s.dir, ref.File), faultSite)
	if err != nil {
		return nil, err
	}
	if r.Size() != ref.Bytes {
		r.Close()
		return nil, fmt.Errorf("%w: %d bytes on disk, manifest says %d", persist.ErrCorrupt, r.Size(), ref.Bytes)
	}
	if r.SHA256() != ref.SHA256 {
		r.Close()
		return nil, fmt.Errorf("%w: SHA-256 does not match manifest", persist.ErrCorrupt)
	}
	return r, nil
}

// Generation returns the loaded (or last published) generation number; 0
// means the store is empty.
func (s *Store) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Len returns the number of entries in the current generation.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// FellBack reports how many corrupt newer generations Open skipped.
func (s *Store) FellBack() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fellBack
}

// Keys returns the sorted entry keys of the current generation.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Has reports whether the current generation holds an entry for key.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Load reads, verifies, and gob-decodes the entry for key into v (a
// pointer). Integrity failures return a wrapped persist.ErrCorrupt —
// callers treat any Load error as a cache miss and recompute; generation
// fallback happens at Open.
func (s *Store) Load(key string, v any) error {
	sp := obs.StartSpan("checkpoint.load")
	defer sp.End()
	sp.SetLabel("key", key)
	if err := faultinject.At("checkpoint.load"); err != nil {
		obs.Inc("checkpoint.load.error")
		return err
	}
	s.mu.Lock()
	ref, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	r, err := s.openEntry(ref, "checkpoint.load.read")
	if err == nil {
		defer r.Close()
		err = r.Decode(v)
	}
	if err != nil {
		obs.Inc("checkpoint.load.error")
		return fmt.Errorf("checkpoint: entry %q: %w", key, err)
	}
	obs.Inc("checkpoint.load")
	obs.Add("checkpoint.load.bytes", r.Size())
	return nil
}

// Save gob-encodes v, seals it, and publishes it under key as a new
// generation. The sequence is entry-file-first, manifest-last: the entry
// is written and renamed, then a manifest listing the whole new
// generation is written and renamed — that final rename is the commit
// point. A crash (or injected fault) at any earlier moment leaves the
// previous generation authoritative; a fired checkpoint.save or
// checkpoint.save.prepublish error aborts the save without corrupting
// anything, and the caller's run continues uncheckpointed.
func (s *Store) Save(key string, v any) error {
	sp := obs.StartSpan("checkpoint.save")
	defer sp.End()
	sp.SetLabel("key", key)
	if err := faultinject.At("checkpoint.save"); err != nil {
		obs.Inc("checkpoint.save.error")
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.gen + 1
	file := fmt.Sprintf("%s.g%06d.ckpt", sanitizeKey(key), gen)
	ref, err := s.writeEntry(file, v)
	if err != nil {
		obs.Inc("checkpoint.save.error")
		return fmt.Errorf("checkpoint: entry %q: %w", key, err)
	}

	entries := make(map[string]EntryRef, len(s.entries)+1)
	for k, r := range s.entries {
		entries[k] = r
	}
	entries[key] = ref
	mdata, err := json.MarshalIndent(&manifest{
		FormatVersion: FormatVersion,
		Generation:    gen,
		Meta:          s.meta,
		Entries:       entries,
	}, "", "  ")
	if err != nil {
		obs.Inc("checkpoint.save.error")
		return fmt.Errorf("checkpoint: manifest: %w", err)
	}
	mpath := filepath.Join(s.dir, fmt.Sprintf("%s%06d.json", manifestPrefix, gen))
	// The prepublish fault site sits inside the atomic write, after the
	// sealed manifest bytes are complete but before the rename — firing a
	// panic there is the crash-before-commit the kill-and-resume suite
	// schedules.
	if err := persist.WriteFileAtomic(mpath, persist.Seal(mdata), "checkpoint.save.prepublish"); err != nil {
		obs.Inc("checkpoint.save.error")
		return fmt.Errorf("checkpoint: manifest: %w", err)
	}
	// Commit happened; a fault here models dying right after it. Disturb
	// (not At): there is no way to report an error that un-publishes.
	faultinject.Disturb("checkpoint.save.postpublish")
	s.gen = gen
	s.entries = entries
	obs.Inc("checkpoint.save")
	obs.Add("checkpoint.save.bytes", ref.Bytes)
	return nil
}

// writeEntry streams v into a sealed entry file (no fault site: the
// save's sites bracket the whole generation) and returns its manifest ref.
func (s *Store) writeEntry(file string, v any) (EntryRef, error) {
	w, err := persist.CreateAt(filepath.Join(s.dir, file), "")
	if err != nil {
		return EntryRef{}, err
	}
	if err := w.Encode(v); err != nil {
		return EntryRef{}, err
	}
	if err := w.Close(); err != nil {
		return EntryRef{}, err
	}
	return EntryRef{File: file, Bytes: w.Size(), SHA256: w.SHA256()}, nil
}

// Prune removes all but the newest keep generations: older manifests are
// deleted first (newest-first ordering is never violated on disk), then
// entry files no surviving manifest references. keep < 1 is a no-op.
func (s *Store) Prune(keep int) error {
	if keep < 1 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names, err := manifestNames(s.dir)
	if err != nil {
		return err
	}
	if len(names) <= keep {
		return nil
	}
	referenced := make(map[string]bool)
	for _, name := range names[:keep] {
		m, err := readManifest(filepath.Join(s.dir, name))
		if err != nil {
			continue // corrupt survivor: keep its files untouched
		}
		for _, ref := range m.Entries {
			referenced[ref.File] = true
		}
	}
	for _, name := range names[keep:] {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			return fmt.Errorf("checkpoint: prune: %w", err)
		}
	}
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: prune: %w", err)
	}
	for _, de := range des {
		n := de.Name()
		if strings.HasSuffix(n, ".ckpt") && !referenced[n] {
			if err := os.Remove(filepath.Join(s.dir, n)); err != nil {
				return fmt.Errorf("checkpoint: prune: %w", err)
			}
		}
	}
	return nil
}

// sanitizeKey maps an entry key to a safe file-name stem.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, key)
}
