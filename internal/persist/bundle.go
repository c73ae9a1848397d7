package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/cascade"
	"repro/internal/faultinject"
	"repro/internal/fusion"
	"repro/internal/ngram"
	"repro/internal/proj"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// BundleFormatVersion versions the on-disk bundle layout (manifest.json +
// bundle.gob). A bundle of this version is exactly what SaveBundle
// writes; every other version is refused with one message naming the
// re-export (checkBundle), whether it arrives from disk or in a push.
const BundleFormatVersion = 2

// ManifestName is the JSON sidecar a bundle directory must contain. It is
// written last (atomically), so a directory with a readable manifest always
// holds a complete bundle — reloaders key on it.
const ManifestName = "manifest.json"

// BundleName is the sealed gob file beside the manifest.
const BundleName = "bundle.gob"

// FrontEndModel is one front-end's complete scoring artifacts: enough to
// turn a phone lattice over that front-end's inventory into a supervector
// (NumPhones/Order rebuild the ngram.Space) and score it (TFLLR + OVR).
type FrontEndModel struct {
	Name      string
	NumPhones int
	Order     int
	// TFLLR is nil when background scaling was disabled at training time.
	TFLLR *ngram.TFLLR
	// OVR holds the float64 one-vs-rest models of a plain bundle. In a
	// compressed bundle it is nil: Quant replaces it.
	OVR *svm.OneVsRest
	// Proj, when non-nil, is the trained low-rank projection applied to
	// TFLLR-scaled supervectors before scoring; the weight space is then
	// Proj.Rank-dimensional, and Quant must be set.
	Proj *proj.Packed
	// Quant is the int8 quantized scoring kernel; the bundle then ships
	// no float64 weights for this front-end.
	Quant *svm.Quantized
}

// SpaceDim returns the raw supervector dimensionality of the front-end's
// n-gram space (what a request's supervector indices are checked
// against, whether or not the bundle projects).
func (fe *FrontEndModel) SpaceDim() int {
	return ngram.NewSpace(fe.NumPhones, fe.Order).Dim()
}

// WeightDim returns the dimensionality of the scoring weight space:
// Proj.Rank for projected bundles, the raw space dimension otherwise.
func (fe *FrontEndModel) WeightDim() int {
	if fe.Proj != nil {
		return fe.Proj.Rank
	}
	return fe.SpaceDim()
}

// NumClasses returns how many languages the front-end scores.
func (fe *FrontEndModel) NumClasses() int {
	if fe.Quant != nil {
		return fe.Quant.NumClasses
	}
	if fe.OVR != nil {
		return fe.OVR.NumClasses
	}
	return 0
}

// ScoresInto scores a supervector already in the front-end's weight
// space (projected if Proj is set) against every language: the int8
// kernel when Quant is present, otherwise the float64 OVR kernel. out
// must have NumClasses elements.
func (fe *FrontEndModel) ScoresInto(x *sparse.Vector, out []float64) []float64 {
	if fe.Quant != nil {
		return fe.Quant.ScoresInto(x, out)
	}
	return fe.OVR.ScoresInto(x, out)
}

// Scores is ScoresInto with a fresh output row.
func (fe *FrontEndModel) Scores(x *sparse.Vector) []float64 {
	return fe.ScoresInto(x, make([]float64, fe.NumClasses()))
}

// PackedBytes reports the in-memory footprint of the front-end's
// resident scoring weights (projection basis + weight kernel), for the
// serve layer's model-footprint gauges. The OVR kernel scores the
// decoded float64 weights and biases in place.
func (fe *FrontEndModel) PackedBytes() int {
	n := fe.Proj.Bytes()
	if fe.Quant != nil {
		n += fe.Quant.Bytes()
	} else if fe.OVR != nil {
		n += fe.WeightDim()*fe.OVR.NumClasses*8 + fe.OVR.NumClasses*8
	}
	return n
}

// Bundle is everything the online scoring service loads: the per-front-end
// models plus the optional trial-level fusion backend (trained on dev
// trials with one feature per front-end; class 1 = target).
type Bundle struct {
	Languages []string
	FrontEnds []FrontEndModel
	Fusion    *fusion.Backend
	// Cascade is the optional tier-1 fast-path artifact (designated
	// front-end PRLM + per-duration-tier exit policy; see
	// internal/cascade). Nil when the bundle was exported without one.
	Cascade *cascade.Model
}

// Validate checks the internal consistency a scoring process relies on.
func (b *Bundle) Validate() error {
	if len(b.Languages) == 0 {
		return fmt.Errorf("persist: bundle has no languages")
	}
	if len(b.FrontEnds) == 0 {
		return fmt.Errorf("persist: bundle has no front-ends")
	}
	seen := make(map[string]bool, len(b.FrontEnds))
	for i := range b.FrontEnds {
		fe := &b.FrontEnds[i]
		if fe.Name == "" {
			return fmt.Errorf("persist: front-end %d has no name", i)
		}
		if seen[fe.Name] {
			return fmt.Errorf("persist: duplicate front-end %q", fe.Name)
		}
		seen[fe.Name] = true
		if fe.NumPhones <= 0 || fe.Order < 1 {
			return fmt.Errorf("persist: front-end %q has invalid space %d^%d", fe.Name, fe.NumPhones, fe.Order)
		}
		// The one compressed shape is an int8 projection basis plus an
		// int8 kernel: Proj requires Quant.
		if fe.Proj != nil && fe.Quant == nil {
			return fmt.Errorf("persist: front-end %q projects but has no int8 kernel", fe.Name)
		}
		if fe.Quant != nil {
			if err := fe.Quant.Validate(); err != nil {
				return fmt.Errorf("persist: front-end %q: %w", fe.Name, err)
			}
			if fe.Quant.NumClasses != len(b.Languages) {
				return fmt.Errorf("persist: front-end %q scores %d classes, bundle lists %d languages",
					fe.Name, fe.Quant.NumClasses, len(b.Languages))
			}
		} else {
			if fe.OVR == nil || len(fe.OVR.Models) == 0 {
				return fmt.Errorf("persist: front-end %q has no language models", fe.Name)
			}
			if fe.OVR.NumClasses != len(b.Languages) {
				return fmt.Errorf("persist: front-end %q scores %d classes, bundle lists %d languages",
					fe.Name, fe.OVR.NumClasses, len(b.Languages))
			}
		}
		if fe.Proj != nil {
			if err := fe.Proj.Validate(); err != nil {
				return fmt.Errorf("persist: front-end %q: %w", fe.Name, err)
			}
			if d := fe.SpaceDim(); fe.Proj.Dim != d {
				return fmt.Errorf("persist: front-end %q projection covers a %d-dim space, front-end's is %d-dim",
					fe.Name, fe.Proj.Dim, d)
			}
		}
		// The weight space must match what scoring will feed it — a
		// rank/dimension mismatch here would otherwise surface as silent
		// truncation (the kernels break at their Dim) or a panic.
		if fe.Quant != nil {
			if fe.Quant.Dim != fe.WeightDim() {
				return fmt.Errorf("persist: front-end %q int8 kernel expects %d-dim inputs, scoring will feed %d",
					fe.Name, fe.Quant.Dim, fe.WeightDim())
			}
		} else {
			for c, mdl := range fe.OVR.Models {
				if mdl == nil {
					return fmt.Errorf("persist: front-end %q class %d model missing", fe.Name, c)
				}
				if len(mdl.W) != fe.WeightDim() {
					return fmt.Errorf("persist: front-end %q class %d weights are %d-dim, scoring will feed %d",
						fe.Name, c, len(mdl.W), fe.WeightDim())
				}
			}
		}
	}
	if c := b.Cascade; c != nil {
		if err := c.Validate(); err != nil {
			return err
		}
		if len(c.LM.Models) != len(b.Languages) {
			return fmt.Errorf("persist: cascade scores %d languages, bundle lists %d",
				len(c.LM.Models), len(b.Languages))
		}
		found := false
		for i := range b.FrontEnds {
			if b.FrontEnds[i].Name == c.FrontEnd {
				if b.FrontEnds[i].NumPhones != c.NumPhones {
					return fmt.Errorf("persist: cascade front-end %q has %d phones, bundle's has %d",
						c.FrontEnd, c.NumPhones, b.FrontEnds[i].NumPhones)
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("persist: cascade names front-end %q, not in the bundle", c.FrontEnd)
		}
	}
	return nil
}

// Manifest is the human- and ops-readable description of a bundle
// directory: where the models came from and what they contain.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	CreatedAt     string `json:"created_at,omitempty"` // RFC 3339
	// Training provenance.
	Seed        uint64 `json:"seed"`
	Scale       string `json:"scale,omitempty"`
	GitDescribe string `json:"git_describe,omitempty"`
	// Contents summary (filled by SaveBundle from the bundle itself).
	FrontEnds    []string `json:"front_ends"`
	NumLanguages int      `json:"num_languages"`
	Fusion       bool     `json:"fusion"`
	// Cascade names the tier-1 fast path's designated front-end when the
	// bundle carries a cascade model; empty otherwise.
	Cascade string `json:"cascade,omitempty"`
	// FrontEndDims records each front-end's feature-space geometry: the
	// raw supervector dimensionality and the projection rank (0 when the
	// bundle is unprojected). LoadBundle cross-checks these against the
	// decoded bundle, so a manifest paired with the wrong bundle — or a
	// bundle whose projection rank disagrees with what the manifest (and
	// hence the registry's active generation) advertises — is rejected at
	// load instead of surfacing as silent truncation or a kernel panic at
	// score time.
	FrontEndDims []FrontEndDims `json:"front_end_dims"`
	// BundleSHA256 is the hex SHA-256 of the complete (sealed) bundle
	// file, recorded at export time; LoadBundle re-verifies it, so a
	// manifest/bundle mismatch (partial copy, wrong file swapped in) is
	// caught even when each file is individually well-formed.
	BundleSHA256 string `json:"bundle_sha256"`
	// AdaptFile names the self-training sidecar (adapt.gob) exported
	// alongside the bundle: frozen train/holdout supervectors, vote
	// calibration, and the pinned referee scores internal/adapt's gates
	// check candidates against. Empty in bundles exported without one —
	// such bundles serve normally but cannot self-train.
	AdaptFile string `json:"adapt_file,omitempty"`
	// AdaptGeneration is the online-adaptation generation this bundle was
	// promoted as (see internal/adapt); zero for base exports.
	AdaptGeneration int64 `json:"adapt_generation,omitempty"`
	// ClusterGeneration is the fleet generation a shard worker's bundle
	// was distributed under (zero outside internal/cluster deployments).
	// Workers refuse scoring requests routed for a different generation,
	// so a scatter–gather request never fuses scores from mixed model
	// generations. A manifest with a generation is a shard manifest: the
	// bundle file is the operator's whole export, pinned by BundleSHA256,
	// and FrontEnds is the worker's assignment, which LoadBundle and
	// UnsealBundle keep from it (selectShard).
	ClusterGeneration int64 `json:"cluster_generation,omitempty"`
}

// FrontEndDims is one front-end's feature-space geometry in the
// manifest: the contract a scoring process checks requests and weight
// kernels against.
type FrontEndDims struct {
	Name string `json:"name"`
	// Dim is the raw supervector dimensionality of the n-gram space.
	Dim int `json:"dim"`
	// Rank is the low-rank projection's output dimension; 0 means the
	// bundle scores in the raw space.
	Rank int `json:"rank,omitempty"`
}

// stampContents overwrites the manifest's contents-summary fields
// (front-end list, language count, fusion/cascade flags, per-front-end
// dims) from the bundle, so the manifest describes what a load of it
// keeps.
func (m *Manifest) stampContents(b *Bundle) {
	m.FrontEnds = m.FrontEnds[:0]
	m.FrontEndDims = m.FrontEndDims[:0]
	for i := range b.FrontEnds {
		fe := &b.FrontEnds[i]
		m.FrontEnds = append(m.FrontEnds, fe.Name)
		d := FrontEndDims{Name: fe.Name, Dim: fe.SpaceDim()}
		if fe.Proj != nil {
			d.Rank = fe.Proj.Rank
		}
		m.FrontEndDims = append(m.FrontEndDims, d)
	}
	m.NumLanguages = len(b.Languages)
	m.Fusion = b.Fusion != nil
	m.Cascade = ""
	if b.Cascade != nil {
		m.Cascade = b.Cascade.FrontEnd
	}
}

// checkDims verifies a manifest's recorded geometry against the decoded
// bundle. A mismatch means the manifest belongs to a different bundle
// (partial copy, wrong generation swapped in) — rejected as corruption,
// because scoring against it would truncate or panic.
func checkDims(m *Manifest, b *Bundle) error {
	if len(m.FrontEndDims) != len(b.FrontEnds) {
		return fmt.Errorf("persist: manifest records %d front-end geometries, bundle has %d (%w)",
			len(m.FrontEndDims), len(b.FrontEnds), ErrCorrupt)
	}
	for i := range b.FrontEnds {
		fe := &b.FrontEnds[i]
		d := m.FrontEndDims[i]
		if d.Name != fe.Name {
			return fmt.Errorf("persist: manifest front-end %d is %q, bundle has %q (%w)", i, d.Name, fe.Name, ErrCorrupt)
		}
		if d.Dim != fe.SpaceDim() {
			return fmt.Errorf("persist: front-end %q: manifest records a %d-dim space, bundle's is %d-dim (%w)",
				fe.Name, d.Dim, fe.SpaceDim(), ErrCorrupt)
		}
		rank := 0
		if fe.Proj != nil {
			rank = fe.Proj.Rank
		}
		if d.Rank != rank {
			return fmt.Errorf("persist: front-end %q: manifest records projection rank %d, bundle carries %d (%w)",
				fe.Name, d.Rank, rank, ErrCorrupt)
		}
	}
	return nil
}

// selectShard cuts a decoded export down to a shard manifest's
// assignment: the front-ends m.FrontEnds names, in that order, without
// fusion or the cascade (only the coordinator fuses and runs tier 1).
// Any other manifest keeps the whole bundle. An empty or duplicated
// assignment, or one naming a front-end the image lacks, is ErrCorrupt:
// the manifest does not describe this bundle.
func selectShard(m *Manifest, b *Bundle) error {
	if m.ClusterGeneration <= 0 {
		return nil
	}
	if len(m.FrontEnds) == 0 {
		return fmt.Errorf("persist: shard manifest assigns no front-ends (%w)", ErrCorrupt)
	}
	kept := make([]FrontEndModel, 0, len(m.FrontEnds))
	for i, name := range m.FrontEnds {
		if slices.Contains(m.FrontEnds[:i], name) {
			return fmt.Errorf("persist: shard manifest assigns front-end %q twice (%w)", name, ErrCorrupt)
		}
		q := slices.IndexFunc(b.FrontEnds, func(fe FrontEndModel) bool { return fe.Name == name })
		if q < 0 {
			return fmt.Errorf("persist: shard manifest assigns front-end %q, the bundle has none (%w)", name, ErrCorrupt)
		}
		kept = append(kept, b.FrontEnds[q])
	}
	b.FrontEnds, b.Fusion, b.Cascade = kept, nil, nil
	return nil
}

// SaveBundle writes a bundle directory: bundle.gob first, manifest.json
// last (both atomically), so concurrent readers either see the previous
// complete bundle or the new one, never a torn mix. The manifest's
// contents-summary fields are overwritten from the bundle.
func SaveBundle(dir string, b *Bundle, m Manifest) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: bundle dir: %w", err)
	}
	w, err := saveAt(filepath.Join(dir, BundleName), "persist.save", b)
	if err != nil {
		return err
	}
	return writeManifest(dir, &m, b, w.SHA256())
}

// writeManifest stamps m for the bundle file just published in dir — format
// version, contents summary from b, the file's SHA-256 — and
// writes it atomically, last, so the directory then holds the complete new
// bundle.
func writeManifest(dir string, m *Manifest, b *Bundle, sha string) error {
	m.FormatVersion = BundleFormatVersion
	m.stampContents(b)
	m.BundleSHA256 = sha
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: manifest: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, ManifestName), append(data, '\n'), ""); err != nil {
		return fmt.Errorf("persist: manifest: %w", err)
	}
	return nil
}

// SealedBundle is a bundle received as a sealed image — the bytes of a
// bundle.gob SaveBundle wrote — verified and decoded once by
// UnsealBundle, ready to Install.
type SealedBundle struct {
	Bundle *Bundle
	// VerifyWait is how long the decode waited for the hash to finish
	// (0 when the hash finished first).
	VerifyWait time.Duration
	image      []byte
	sha        string // of the whole image, from the unseal pass
	manifest   Manifest
}

// UnsealBundle reads a sealed bundle image from body to its end, hashing
// it as it arrives and decoding it once (readSealed); declared is the
// body's declared length, a sizing hint (≤ 0 when unknown). The bundle
// is returned only once every check has passed: the footer, the
// manifest's format version, the SHA-256 it pins, the decode, the shard
// manifest's
// assignment (selectShard), and the result against itself (Validate)
// and against the manifest's geometry (checkDims: a manifest recording
// another bundle's is ErrCorrupt). A body that cannot be read to its end
// is a ReadError. Nothing is written.
func UnsealBundle(body io.Reader, declared int64, m Manifest) (*SealedBundle, error) {
	var b Bundle
	img, err := readSealed(body, declared, "sealed image", &b)
	if err != nil {
		return nil, err
	}
	if err := checkBundle(img, &b, &m, "sealed image"); err != nil {
		return nil, err
	}
	return &SealedBundle{Bundle: &b, VerifyWait: img.verifyWait, image: img.data, sha: img.sha256(), manifest: m}, nil
}

// checkBundle runs the checks a bundle image faces after its footer, in
// order: the manifest's format version, the SHA-256 it pins, the
// decode's verdict, the shard manifest's assignment, Validate and
// checkDims; name labels errors. Every load, reload, adapt root and
// worker push passes through here, so a bundle from another format gets
// the one re-export message wherever it arrives.
func checkBundle(img *sealedImage, b *Bundle, m *Manifest, name string) error {
	if m.FormatVersion != BundleFormatVersion {
		return fmt.Errorf("persist: bundle format %d (want %d): re-export with lre -export-models DIR",
			m.FormatVersion, BundleFormatVersion)
	}
	if img.sha256() != m.BundleSHA256 {
		return fmt.Errorf("persist: bundle %s does not match the manifest's SHA-256 (%w)", name, ErrCorrupt)
	}
	if img.decodeErr != nil {
		return fmt.Errorf("persist: bundle %s: %w", name, img.decodeErr)
	}
	if err := selectShard(m, b); err != nil {
		return err
	}
	if err := b.Validate(); err != nil {
		return err
	}
	return checkDims(m, b)
}

// Install publishes the bundle into dir exactly as SaveBundle would have:
// the received image, unchanged, as bundle.gob (atomically, through the
// persist.save fault site), then the manifest stamped for what the
// bundle kept, last. It returns that manifest; with the decoded Bundle it
// is what LoadBundle(dir) reads back. On error dir keeps its previous
// bundle.
func (s *SealedBundle) Install(dir string) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: bundle dir: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, BundleName), s.image, "persist.save"); err != nil {
		return nil, err
	}
	m := s.manifest
	m.FrontEnds, m.FrontEndDims = nil, nil // restamped into fresh slices
	if err := writeManifest(dir, &m, s.Bundle, s.sha); err != nil {
		return nil, err
	}
	return &m, nil
}

// Image is a verified sealed bundle file, held open by the load that
// verified it, so its bytes can be sent on later without being held in
// memory (the fleet coordinator pushes them to its workers). A rename
// over the path does not reach an open Image; an overwrite in place
// would, and is caught by whoever checks the bytes against SHA256.
type Image struct {
	f          *os.File
	size       int64
	sha        string
	verifyWait time.Duration
}

// SHA256 is the hex SHA-256 of the image as it was verified.
func (im *Image) SHA256() string { return im.sha }

// VerifyWait is how long the load's decode waited for the hash to
// finish (0 when the hash finished first).
func (im *Image) VerifyWait() time.Duration { return im.verifyWait }

// Reader returns a fresh reader over the whole image.
func (im *Image) Reader() *io.SectionReader { return io.NewSectionReader(im.f, 0, im.size) }

// Close releases the file.
func (im *Image) Close() error { return im.f.Close() }

// testHookBundleOpened runs once LoadBundle has read the bundle file and
// before it returns; tests rewrite files there.
var testHookBundleOpened = func() {}

// LoadBundle reads and validates a bundle directory written by
// SaveBundle, or by SealedBundle.Install (a shard manifest keeps its
// assignment from the image).
func LoadBundle(dir string) (*Bundle, *Manifest, error) {
	b, m, im, err := loadBundle(dir)
	if err != nil {
		return nil, nil, err
	}
	im.Close()
	return b, m, nil
}

// loadBundle is LoadBundle that also returns the bundle file, open.
func loadBundle(dir string) (*Bundle, *Manifest, *Image, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("persist: manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, nil, fmt.Errorf("persist: manifest: %w", err)
	}
	// One read brings the whole file into memory, hashed as it arrives
	// and decoded from those bytes; whatever happens to the file
	// meanwhile, the bundle returned is the one whose SHA-256 matched.
	path := filepath.Join(dir, BundleName)
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("persist: bundle %s: %w", BundleName, err)
	}
	b, img, err := readBundle(f, path, &m)
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return b, &m, &Image{f: f, size: int64(len(img.data)), sha: img.sha256(), verifyWait: img.verifyWait}, nil
}

// readBundle reads the open bundle file f through the
// persist.load.read fault site and checks it against m.
func readBundle(f *os.File, path string, m *Manifest) (*Bundle, *sealedImage, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("persist: bundle %s: %w", BundleName, err)
	}
	var b Bundle
	in := faultinject.Reader("persist.load.read", io.LimitReader(f, st.Size()))
	img, err := readSealed(in, st.Size(), path, &b)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: bundle %s: %w", BundleName, err)
	}
	testHookBundleOpened()
	if err := checkBundle(img, &b, m, BundleName); err != nil {
		return nil, nil, err
	}
	return &b, img, nil
}
