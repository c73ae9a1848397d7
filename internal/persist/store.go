package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Generation store: the one crash-safe, generation-versioned directory
// format. internal/checkpoint (payloads are sealed entry files) and bundle
// roots (payloads are gen-%06d bundle directories; see gendir.go) use it.
//
// Payloads are written once and never rewritten; each generation is
// committed by a numbered sealed record, MANIFEST-%06d.json, published
// last with the write-rename protocol and listing the payloads it
// references. The record's rename is the commit point: a crash before it
// leaves the previous generation authoritative and the new payloads
// orphans Prune collects. Open walks the records newest-first and adopts
// the first that verifies, so a torn newest generation degrades to an
// older one instead of to nothing.

const (
	recordPrefix     = "MANIFEST-"
	recordVersion    = 1
	quarantinePrefix = "quarantine-"
)

// Ref locates one payload of a generation. Bytes and SHA256 pin a sealed
// payload file, which Open verifies; a directory payload has Bytes 0 and
// is left to the store user's own check.
type Ref struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes,omitempty"`
	SHA256 string `json:"sha256,omitempty"`
}

// Record is one committed generation: the user's metadata and its keyed
// payloads.
type Record struct {
	FormatVersion int             `json:"format_version"`
	Generation    int64           `json:"generation"`
	Meta          json.RawMessage `json:"meta,omitempty"`
	Entries       map[string]Ref  `json:"entries"`
}

// Store is a generation store rooted at a directory. payload recognizes
// the directory entries that are payloads — the only names Prune deletes —
// and the generation each was written for.
type Store struct {
	dir     string
	payload func(name string) (gen int64, ok bool)
}

// NewStore returns the generation store in dir (see Store for payload).
func NewStore(dir string, payload func(name string) (int64, bool)) *Store {
	return &Store{dir: dir, payload: payload}
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

func recordName(gen int64) string { return fmt.Sprintf("%s%06d.json", recordPrefix, gen) }

// records returns the commit record numbers among ents, newest first.
func records(ents []os.DirEntry) []int64 {
	var gens []int64
	for _, e := range ents {
		num, ok := strings.CutPrefix(e.Name(), recordPrefix)
		num, ok2 := strings.CutSuffix(num, ".json")
		if g, err := strconv.ParseInt(num, 10, 64); ok && ok2 && err == nil && g > 0 {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens
}

// readRecord reads commit record gen and checks that it is sealed, says
// it is generation gen, and names only files inside the store.
func (s *Store) readRecord(gen int64) (*Record, error) {
	data, err := os.ReadFile(s.path(recordName(gen)))
	if err == nil {
		data, err = Unseal(data)
	}
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, recordName(gen), err)
	}
	if r.FormatVersion != recordVersion || r.Generation != gen {
		return nil, fmt.Errorf("%w: %s holds a version %d record of generation %d", ErrCorrupt, recordName(gen), r.FormatVersion, r.Generation)
	}
	for key, ref := range r.Entries {
		if ref.File == "" || ref.File == ".." || ref.File != filepath.Base(ref.File) {
			return nil, fmt.Errorf("%w: entry %q names %q, outside the store", ErrCorrupt, key, ref.File)
		}
	}
	return &r, nil
}

// Open walks the commit records newest-first and returns the first whose
// sealed payloads all verify, with the number of newer records it
// skipped. A store with no usable record returns a nil record.
func (s *Store) Open() (*Record, int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	rec, skipped := s.walk(records(ents), nil)
	return rec, skipped, nil
}

// walk is Open over already listed record numbers, adopting a record only
// once verify (when set) accepts it too.
func (s *Store) walk(gens []int64, verify func(*Record) error) (*Record, int) {
next:
	for i, g := range gens {
		r, err := s.readRecord(g)
		if err != nil {
			continue
		}
		for _, ref := range r.Entries {
			if ref.Bytes > 0 {
				rd, err := s.OpenPayload(ref, "")
				if err != nil {
					continue next
				}
				rd.Close()
			}
		}
		if verify == nil || verify(r) == nil {
			return r, i
		}
	}
	return nil, len(gens)
}

// Commit publishes rec as commit record rec.Generation; faultSite sits
// just before the rename that is the commit point.
func (s *Store) Commit(rec *Record, faultSite string) error {
	rec.FormatVersion = recordVersion
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: record: %w", err)
	}
	return WriteFileAtomic(s.path(recordName(rec.Generation)), Seal(data), faultSite)
}

// Next returns one past every generation number in use by a record, a
// payload or a quarantined payload: a number is never reused, not even
// that of a candidate that never committed.
func (s *Store) Next() (int64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	var max int64
	if gens := records(ents); len(gens) > 0 {
		max = gens[0]
	}
	for _, e := range ents {
		if g, ok := s.payload(strings.TrimPrefix(e.Name(), quarantinePrefix)); ok && g > max {
			max = g
		}
	}
	return max + 1, nil
}

// WritePayload streams v into a new sealed payload file and returns its
// Ref.
func (s *Store) WritePayload(file string, v any) (Ref, error) {
	w, err := saveAt(s.path(file), "", v)
	if err != nil {
		return Ref{}, err
	}
	return Ref{File: file, Bytes: w.Size(), SHA256: w.SHA256()}, nil
}

// OpenPayload opens a sealed payload file positioned to decode its value,
// after one streaming pass (through faultSite, "" for none) has checked
// its footer and the size and SHA-256 its record pins.
func (s *Store) OpenPayload(ref Ref, faultSite string) (*Reader, error) {
	r, err := OpenAt(s.path(ref.File), faultSite)
	if err != nil {
		return nil, err
	}
	if r.Size() != ref.Bytes || r.SHA256() != ref.SHA256 {
		r.Close()
		return nil, fmt.Errorf("%w: %s does not match the size and SHA-256 its record pins", ErrCorrupt, ref.File)
	}
	return r, nil
}

// Quarantine renames payload name to quarantine-<name>, out of the
// store's namespace but kept for forensics.
func (s *Store) Quarantine(name string) (string, error) {
	if _, ok := s.payload(name); !ok || strings.HasPrefix(name, quarantinePrefix) {
		return "", fmt.Errorf("persist: %q is not a payload of this store", name)
	}
	q := quarantinePrefix + name
	if err := os.Rename(s.path(name), s.path(q)); err != nil {
		return "", fmt.Errorf("persist: quarantine %s: %w", name, err)
	}
	return q, nil
}

// Prune keeps the newest keep commit records, deletes the older ones, and
// then every payload no surviving record references. Pinned payloads
// always survive, and a record that references no unpinned payload does
// not use up keep. Neither does an unreadable record, but the payloads it
// references are unknown, so then no payload is swept. Quarantined
// payloads are bounded to the newest keep. keep < 1 is a no-op.
func (s *Store) Prune(keep int, pinned ...string) error {
	if keep < 1 {
		return nil
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("persist: prune: %w", err)
	}
	pin := make(map[string]bool)
	for _, p := range pinned {
		pin[p] = true
	}
	referenced := make(map[string]bool)
	var doomed, quarantined []string
	sweep, kept := true, 0
	for _, g := range records(ents) {
		if kept == keep {
			doomed = append(doomed, recordName(g))
			continue
		}
		r, err := s.readRecord(g)
		if err != nil {
			sweep = false
			continue
		}
		counts := false
		for _, ref := range r.Entries {
			referenced[ref.File] = true
			_, ok := s.payload(ref.File)
			counts = counts || ok && !pin[ref.File]
		}
		if counts {
			kept++
		}
	}
	for _, e := range ents {
		n := e.Name()
		if _, ok := s.payload(strings.TrimPrefix(n, quarantinePrefix)); !ok {
			continue
		}
		if strings.HasPrefix(n, quarantinePrefix) {
			quarantined = append(quarantined, n)
		} else if sweep && !referenced[n] && !pin[n] {
			doomed = append(doomed, n)
		}
	}
	// Zero-padded generation numbers sort lexically: newest first.
	sort.Sort(sort.Reverse(sort.StringSlice(quarantined)))
	for _, n := range append(doomed, quarantined[min(keep, len(quarantined)):]...) {
		if err := os.RemoveAll(s.path(n)); err != nil {
			return fmt.Errorf("persist: prune: %w", err)
		}
	}
	return nil
}
