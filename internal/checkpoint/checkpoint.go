// Package checkpoint is the crash-safe snapshot store behind the
// experiment pipeline's checkpoint/resume support. The expensive phases —
// per-front-end decoding/supervector extraction, OVR SVM training,
// baseline scoring, every DBA boosting round, the fusion backend — run
// for minutes at full scale; a Store lets a killed run restart from the
// last completed phase boundary instead of from zero, with bit-identical
// final results (the resume-equivalence suite and the internal/e2e
// crash-resume drill are the referees).
//
// The directory is a persist generation store (see persist.Store):
//
//	MANIFEST-000007.json       newest generation's commit record
//	MANIFEST-000006.json       previous generation (kept for fallback)
//	features-HU.g000001.ckpt   sealed gob entries, one file per save
//
// A Save writes its entry file, then commits a generation whose record
// pins every entry's size and SHA-256; a re-saved key gets a fresh file.
// Open adopts the newest generation whose record and entries all verify,
// counting the corrupt newer ones it skips (FellBack, the
// checkpoint.fallback counter), so a damaged newest checkpoint degrades
// the resume point instead of failing the run. This package adds the run
// Meta guard, keyed entries, and the fault sites and metrics.
//
// # Fault sites
//
//	checkpoint.save             before any write (a fired error aborts the save cleanly)
//	checkpoint.save.prepublish  after all bytes are on disk, before the record rename
//	checkpoint.save.postpublish after the record rename (crash-after-commit)
//	checkpoint.load             entry load entry point
//	checkpoint.load.read        entry read stream (torn/partial reads)
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/persist"
)

// Meta binds a store to one experiment run. Resuming with a different
// scale or seed would silently mix incompatible state, so Open refuses.
type Meta struct {
	Scale string `json:"scale"`
	Seed  uint64 `json:"seed"`
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
	store *persist.Store
	meta  json.RawMessage // the run's Meta, as every record carries it

	mu       sync.Mutex
	gen      int64 // latest good generation (0 = empty store)
	entries  map[string]persist.Ref
	fellBack int // corrupt generations skipped at Open (immutable)
}

// Open loads (or initializes) a checkpoint directory for the run
// described by meta. It adopts the newest generation whose record and
// entries all verify; corrupt newer generations are skipped and counted.
// An empty directory yields an empty store at generation 0.
func Open(dir string, meta Meta) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	raw, _ := json.Marshal(meta) // a string and an integer always marshal
	s := &Store{store: persist.NewStore(dir, entryGeneration), meta: raw, entries: make(map[string]persist.Ref)}
	rec, skipped, err := s.store.Open()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s.fellBack = skipped
	if skipped > 0 {
		obs.Add("checkpoint.fallback", int64(skipped))
	}
	if rec == nil {
		return s, nil
	}
	var got Meta
	if err := json.Unmarshal(rec.Meta, &got); err != nil || got != meta {
		return nil, fmt.Errorf("%w: dir holds scale=%q seed=%d, run wants scale=%q seed=%d",
			ErrMetaMismatch, got.Scale, got.Seed, meta.Scale, meta.Seed)
	}
	s.gen = rec.Generation
	if rec.Entries != nil {
		s.entries = rec.Entries
	}
	return s, nil
}

// entryGeneration recognizes an entry file, <key>.g%06d.ckpt, and the
// generation that wrote it.
func entryGeneration(name string) (int64, bool) {
	stem, ok := strings.CutSuffix(name, ".ckpt")
	var gen int64
	if i := strings.LastIndex(stem, ".g"); i >= 0 {
		gen, _ = strconv.ParseInt(stem[i+2:], 10, 64)
	}
	return gen, ok
}

// Generation returns the loaded (or last published) generation number; 0
// means the store is empty.
func (s *Store) Generation() int64 {
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
func (s *Store) FellBack() int { return s.fellBack }

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
	r, err := s.store.OpenPayload(ref, "checkpoint.load.read")
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
// generation: the entry file first, then the record listing the whole new
// generation — that record's rename is the commit point. A crash (or
// injected fault) at any earlier moment leaves the previous generation
// authoritative; a fired checkpoint.save or checkpoint.save.prepublish
// error aborts the save without corrupting anything, and the caller's run
// continues uncheckpointed.
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
	rec, err := s.commitLocked(key, v)
	if err != nil {
		obs.Inc("checkpoint.save.error")
		return fmt.Errorf("checkpoint: save %q: %w", key, err)
	}
	// Commit happened; a fault here models dying right after it. Disturb
	// (not At): there is no way to report an error that un-publishes.
	faultinject.Disturb("checkpoint.save.postpublish")
	s.gen = rec.Generation
	s.entries = rec.Entries
	obs.Inc("checkpoint.save")
	obs.Add("checkpoint.save.bytes", rec.Entries[key].Bytes)
	return nil
}

// commitLocked writes key's entry file, then commits the generation that
// adds it to the current entries.
func (s *Store) commitLocked(key string, v any) (*persist.Record, error) {
	gen, err := s.store.Next()
	if err != nil {
		return nil, err
	}
	ref, err := s.store.WritePayload(fmt.Sprintf("%s.g%06d.ckpt", sanitizeKey(key), gen), v)
	if err != nil {
		return nil, err
	}
	rec := &persist.Record{Generation: gen, Meta: s.meta, Entries: map[string]persist.Ref{key: ref}}
	for k, r := range s.entries {
		if k != key {
			rec.Entries[k] = r
		}
	}
	// The prepublish fault site sits inside the atomic write, after the
	// sealed record bytes are complete but before the rename — firing a
	// panic there is the crash-before-commit the kill-and-resume suite
	// schedules.
	return rec, s.store.Commit(rec, "checkpoint.save.prepublish")
}

// Prune removes all but the newest keep generations: older records, then
// the entry files no surviving record references. keep < 1 is a no-op.
func (s *Store) Prune(keep int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Prune(keep)
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
