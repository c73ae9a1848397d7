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

// Generation-versioned bundle roots (internal/adapt's promotion target).
//
// A plain bundle directory — manifest.json + bundle.gob at the root — is
// "generation 0": every registry that predates online adaptation keeps
// loading it unchanged. A promotion adds a gen-%06d subdirectory (itself
// a complete SaveBundle directory) and then atomically publishes a sealed
// CURRENT pointer file naming it. Commit order mirrors the checkpoint
// store's manifest-last protocol: the generation directory is fully
// written and verified before the pointer flips, so a reader either
// resolves the previous generation or the new one, never a torn mix. A
// crash between the two leaves an orphan gen directory that prune
// eventually collects; the serving pointer is untouched.
//
// The pointer also records the last-known-good generation, making
// rollback a pure pointer rewrite — no bundle bytes move.

// CurrentName is the sealed pointer file a generation-versioned bundle
// root carries. Absent on plain (pre-adaptation) bundle directories.
const CurrentName = "CURRENT"

// BaseGenDir is the pointer target meaning "the root directory itself"
// (generation 0, the exported base bundle).
const BaseGenDir = "."

// genPrefix and quarantinePrefix name generation subdirectories and
// quarantined (gate-failed or corrupt) candidates.
const (
	genPrefix        = "gen-"
	quarantinePrefix = "quarantine-"
)

// GenPointer is the decoded CURRENT file: which generation directory
// serves, and which one rollback returns to.
type GenPointer struct {
	// Generation is the monotonically increasing adaptation generation
	// (0 = the base export at the root).
	Generation int64 `json:"generation"`
	// Dir is the bundle directory relative to the root: "gen-000001", or
	// "." for the base bundle.
	Dir string `json:"dir"`
	// BundleSHA256 pins the sealed bundle file the pointer promotes (for
	// status surfaces; LoadBundle re-verifies the manifest's own SHA).
	BundleSHA256 string `json:"bundle_sha256,omitempty"`
	// LastKnownGood is the Dir-style name of the generation rollback
	// restores ("." when the base bundle is the fallback). Empty means
	// the base.
	LastKnownGood string `json:"last_known_good,omitempty"`
}

// GenDirName formats the directory name of generation gen.
func GenDirName(gen int64) string {
	return fmt.Sprintf("%s%06d", genPrefix, gen)
}

// ParseGeneration extracts the generation number from a gen-%06d (or
// quarantine-gen-%06d) directory name; ok is false for anything else.
func ParseGeneration(name string) (int64, bool) {
	return parseGenName(name)
}

// parseGenName extracts the generation number from a gen-%06d (or
// quarantine-gen-%06d) directory name; ok is false for anything else.
func parseGenName(name string) (int64, bool) {
	name = strings.TrimPrefix(name, quarantinePrefix)
	rest, ok := strings.CutPrefix(name, genPrefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// WriteCurrent atomically publishes the CURRENT pointer. The write runs
// through the persist.save fault site's atomic-rename protocol via
// faultSite, so chaos plans can model a crash between the staged pointer
// and its publication (the previous pointer then keeps serving).
func WriteCurrent(root string, p GenPointer, faultSite string) error {
	if p.Dir == "" {
		return fmt.Errorf("persist: CURRENT pointer names no directory")
	}
	data, err := json.Marshal(&p)
	if err != nil {
		return fmt.Errorf("persist: CURRENT: %w", err)
	}
	_, err = saveAt(filepath.Join(root, CurrentName), faultSite, data)
	return err
}

// ReadCurrent reads and verifies the CURRENT pointer. A missing file
// returns os.ErrNotExist (the root is a plain generation-0 bundle); a
// torn or corrupt pointer returns a wrapped ErrCorrupt.
func ReadCurrent(root string) (GenPointer, error) {
	var p GenPointer
	r, err := OpenAt(filepath.Join(root, CurrentName), "")
	if os.IsNotExist(err) {
		return p, err
	}
	if err != nil {
		return p, fmt.Errorf("persist: CURRENT: %w", err)
	}
	defer r.Close()
	var data []byte
	if err := r.Decode(&data); err != nil {
		return p, fmt.Errorf("persist: CURRENT: %w", err)
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("persist: CURRENT: %w (%w)", err, ErrCorrupt)
	}
	if p.Dir == "" {
		return p, fmt.Errorf("persist: CURRENT names no directory (%w)", ErrCorrupt)
	}
	return p, nil
}

// GenEntry is one generation subdirectory of a bundle root.
type GenEntry struct {
	Name       string
	Generation int64
}

// ListGenerations returns the root's gen-* subdirectories, newest first.
// Quarantined directories are excluded — they must never be resolvable.
func ListGenerations(root string) []GenEntry {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil
	}
	var out []GenEntry
	for _, e := range ents {
		if !e.IsDir() || strings.HasPrefix(e.Name(), quarantinePrefix) {
			continue
		}
		if g, ok := parseGenName(e.Name()); ok {
			out = append(out, GenEntry{Name: e.Name(), Generation: g})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Generation > out[j].Generation })
	return out
}

// NextGeneration returns 1 + the highest generation number in use at the
// root — counting live gen directories, quarantined ones (their numbers
// are burned, never reused), and the CURRENT pointer itself.
func NextGeneration(root string) int64 {
	var max int64
	ents, err := os.ReadDir(root)
	if err == nil {
		for _, e := range ents {
			if g, ok := parseGenName(e.Name()); ok && g > max {
				max = g
			}
		}
	}
	if p, err := ReadCurrent(root); err == nil && p.Generation > max {
		max = p.Generation
	}
	return max + 1
}

// ResolveInfo reports how a bundle root was resolved to a concrete
// bundle directory.
type ResolveInfo struct {
	// Dir is the directory the bundle was loaded from.
	Dir string
	// DirName is the pointer-style name of Dir ("." or "gen-%06d").
	DirName string
	// Generation is the adaptation generation served (0 = base).
	Generation int64
	// LastKnownGood is the pointer's recorded rollback target ("" when
	// the root has no pointer).
	LastKnownGood string
	// Fallback is true when the pointer (or its target) was unusable and
	// an older generation or the base bundle was served instead.
	Fallback bool
}

// ResolveBundle loads the bundle a generation-versioned root currently
// designates. Resolution order: the CURRENT pointer's target; on a
// missing pointer, the root itself (plain generation-0 layout, exactly
// LoadBundle's historical behavior). A corrupt pointer, or a pointer
// whose target fails to load, falls back — last-known-good first, then
// every remaining generation newest-first, then the base — so a serving
// process survives a torn promotion or post-promotion disk rot by
// serving the newest loadable generation rather than nothing.
func ResolveBundle(root string) (*Bundle, *Manifest, ResolveInfo, error) {
	ptr, perr := ReadCurrent(root)
	if perr != nil && os.IsNotExist(perr) {
		b, m, err := LoadBundle(root)
		return b, m, ResolveInfo{Dir: root, DirName: BaseGenDir}, err
	}

	info := ResolveInfo{LastKnownGood: ptr.LastKnownGood}
	var tried []string
	try := func(name string, gen int64, fallback bool) (*Bundle, *Manifest, bool) {
		for _, t := range tried {
			if t == name {
				return nil, nil, false
			}
		}
		tried = append(tried, name)
		dir := root
		if name != BaseGenDir {
			dir = filepath.Join(root, name)
		}
		b, m, err := LoadBundle(dir)
		if err != nil {
			return nil, nil, false
		}
		info.Dir, info.DirName, info.Generation, info.Fallback = dir, name, gen, fallback
		return b, m, true
	}

	if perr == nil {
		if b, m, ok := try(ptr.Dir, ptr.Generation, false); ok {
			return b, m, info, nil
		}
		if lkg := ptr.LastKnownGood; lkg != "" {
			g, _ := parseGenName(lkg)
			if b, m, ok := try(lkg, g, true); ok {
				return b, m, info, nil
			}
		}
	}
	for _, e := range ListGenerations(root) {
		if b, m, ok := try(e.Name, e.Generation, true); ok {
			return b, m, info, nil
		}
	}
	if b, m, ok := try(BaseGenDir, 0, true); ok {
		return b, m, info, nil
	}
	return nil, nil, info, fmt.Errorf("persist: no loadable generation under %s (%w)", root, ErrCorrupt)
}

// QuarantineGeneration renames a gate-failed or corrupt candidate
// generation out of the resolvable namespace (gen-000007 →
// quarantine-gen-000007), keeping the bytes for forensics. Prune bounds
// how many quarantined directories accumulate.
func QuarantineGeneration(root, name string) (string, error) {
	if _, ok := parseGenName(name); !ok || strings.HasPrefix(name, quarantinePrefix) {
		return "", fmt.Errorf("persist: %q is not a generation directory", name)
	}
	q := quarantinePrefix + name
	if err := os.Rename(filepath.Join(root, name), filepath.Join(root, q)); err != nil {
		return "", fmt.Errorf("persist: quarantine %s: %w", name, err)
	}
	return q, nil
}

// PruneGenerations bounds the root's disk growth after a promotion,
// mirroring the checkpoint store's Prune semantics: the newest keep live
// generation directories survive, pinned names (the serving generation
// and last-known-good) always survive regardless of age, and everything
// older is deleted. Quarantined directories are pruned to the same keep
// bound by name. The base bundle at the root is never touched. Returns
// the removed directory names.
func PruneGenerations(root string, keep int, pinned ...string) ([]string, error) {
	if keep < 1 {
		keep = 1
	}
	pin := make(map[string]bool, len(pinned))
	for _, p := range pinned {
		pin[p] = true
	}
	var removed []string
	live := ListGenerations(root)
	kept := 0
	for _, e := range live {
		if pin[e.Name] {
			continue
		}
		if kept < keep {
			kept++
			continue
		}
		if err := os.RemoveAll(filepath.Join(root, e.Name)); err != nil {
			return removed, fmt.Errorf("persist: prune %s: %w", e.Name, err)
		}
		removed = append(removed, e.Name)
	}

	ents, err := os.ReadDir(root)
	if err != nil {
		return removed, nil
	}
	var quarantined []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), quarantinePrefix) {
			quarantined = append(quarantined, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(quarantined))) // newest gen numbers first
	for i, name := range quarantined {
		if i < keep {
			continue
		}
		if err := os.RemoveAll(filepath.Join(root, name)); err != nil {
			return removed, fmt.Errorf("persist: prune %s: %w", name, err)
		}
		removed = append(removed, name)
	}
	return removed, nil
}
