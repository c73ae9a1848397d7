package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Generation-versioned bundle roots (internal/adapt's promotion target),
// the second user of the generation store (store.go).
//
// A plain bundle directory — manifest.json + bundle.gob at the root — is
// "generation 0": every registry that predates online adaptation keeps
// loading it unchanged. A promotion stages a gen-%06d subdirectory (itself
// a complete SaveBundle directory), and once the candidate has passed its
// gates it commits a record naming that directory, the last-known-good
// directory rollback returns to, and the SHA-256 of the new bundle file.
// Only committed records resolve: a candidate staged but never committed
// (a crash during the gates) is invisible to ResolveBundle and collected
// by Prune. Rollback commits a record naming the last-known-good
// directory; no bundle bytes move.

// BaseGenDir is the record entry meaning "the root directory itself"
// (generation 0, the exported base bundle).
const BaseGenDir = "."

// genPrefix names generation subdirectories.
const genPrefix = "gen-"

// Entry keys of a bundle root's commit records.
const (
	servingEntry = "serving"
	lkgEntry     = "last_known_good"
)

// GenDirName formats the directory name of generation gen.
func GenDirName(gen int64) string {
	return fmt.Sprintf("%s%06d", genPrefix, gen)
}

// ParseGeneration extracts the generation number from a gen-%06d (or
// quarantine-gen-%06d) directory name; ok is false for anything else.
func ParseGeneration(name string) (int64, bool) {
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

// BundleRoot returns the generation store of a bundle root: its payloads
// are the gen-%06d directories.
func BundleRoot(root string) *Store { return NewStore(root, ParseGeneration) }

// CommitBundle commits record gen on a bundle root: dir is the bundle
// directory that serves from now on (bundleSHA, when set, pins its sealed
// bundle file) and lkg, when set, the one rollback returns to.
func CommitBundle(st *Store, gen int64, dir, bundleSHA, lkg, faultSite string) error {
	entries := map[string]Ref{servingEntry: {File: dir, SHA256: bundleSHA}}
	if lkg != "" {
		entries[lkgEntry] = Ref{File: lkg}
	}
	return st.Commit(&Record{Generation: gen, Entries: entries}, faultSite)
}

// ResolveInfo reports how a bundle root was resolved to a concrete
// bundle directory.
type ResolveInfo struct {
	// DirName names the directory the bundle was loaded from, relative to
	// the root: "." or "gen-%06d".
	DirName string
	// Generation is the adaptation generation served (0 = base).
	Generation int64
	// LastKnownGood is the resolved record's rollback target ("" when the
	// root has no record, or the record names none).
	LastKnownGood string
	// Fallback is true when the newest record (or the directory it names)
	// was unusable and an older generation or the base bundle was served
	// instead.
	Fallback bool
}

// ResolveBundle loads the bundle a generation-versioned root currently
// designates. A root without commit records is a plain bundle directory:
// one listing, then exactly LoadBundle's historical behavior. Otherwise
// the records are walked newest-first, and each offers the directory it
// commits, then its last-known-good; the first that loads (and matches
// the record's pinned SHA-256) serves. When no record yields a bundle the
// base export serves. Only committed directories are ever candidates, so
// a staged candidate that never passed its gates cannot resolve.
func ResolveBundle(root string) (*Bundle, *Manifest, ResolveInfo, error) {
	b, m, info, im, err := ResolveBundleImage(root)
	if err != nil {
		return nil, nil, info, err
	}
	im.Close()
	return b, m, info, nil
}

// ResolveBundleImage is ResolveBundle that keeps the resolved bundle
// file open as an Image, verified and decoded; the caller closes it.
func ResolveBundleImage(root string) (*Bundle, *Manifest, ResolveInfo, *Image, error) {
	base := ResolveInfo{DirName: BaseGenDir}
	// A missing root fails in loadBundle below, with its usual error.
	ents, _ := os.ReadDir(root)
	gens := records(ents)
	if len(gens) == 0 {
		b, m, im, err := loadBundle(root)
		return b, m, base, im, err
	}

	var b *Bundle
	var m *Manifest
	var im *Image
	var info ResolveInfo
	rec, skipped := BundleRoot(root).walk(gens, func(r *Record) error {
		lkg := r.Entries[lkgEntry]
		for i, ref := range []Ref{r.Entries[servingEntry], lkg} {
			if ref.File == "" {
				continue
			}
			bb, mm, ii, err := loadBundle(filepath.Join(root, ref.File))
			if err != nil {
				continue
			}
			if ref.SHA256 != "" && mm.BundleSHA256 != ref.SHA256 {
				ii.Close()
				continue
			}
			gen, _ := ParseGeneration(ref.File)
			b, m, im = bb, mm, ii
			info = ResolveInfo{DirName: ref.File, Generation: gen, LastKnownGood: lkg.File, Fallback: i > 0}
			return nil
		}
		return ErrCorrupt
	})
	if rec != nil {
		info.Fallback = info.Fallback || skipped > 0
		return b, m, info, im, nil
	}
	b, m, im, err := loadBundle(root)
	if err != nil {
		return nil, nil, base, nil, fmt.Errorf("%w; no committed generation under %s loads either (%w)", err, root, ErrCorrupt)
	}
	base.Fallback = true
	return b, m, base, im, nil
}
