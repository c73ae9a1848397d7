package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cascade"
	"repro/internal/fusion"
	"repro/internal/ngram"
	"repro/internal/prlm"
	"repro/internal/proj"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// compressFE rewrites one trained front-end into its compressed form at
// the given rank: a projection fitted on the probe vectors and packed to
// int8, the float64 weights projected into the rank space (w' = B·w, so
// w'·Bx ≈ w·x) and quantized with the float64 set dropped — the same
// shape the experiments layer exports.
func compressFE(t *testing.T, fe FrontEndModel, probes []*sparse.Vector, rank int) FrontEndModel {
	t.Helper()
	p, err := proj.Fit(probes, fe.SpaceDim(), proj.Config{Rank: rank, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := p.Pack()
	if err != nil {
		t.Fatal(err)
	}
	dim := fe.SpaceDim()
	ovr := &svm.OneVsRest{NumClasses: fe.OVR.NumClasses}
	for _, m := range fe.OVR.Models {
		w := make([]float64, rank)
		for d := 0; d < rank; d++ {
			row := p.Basis[d*dim : (d+1)*dim]
			var s float64
			for j, wv := range m.W {
				s += wv * row[j]
			}
			w[d] = s
		}
		ovr.Models = append(ovr.Models, &svm.Model{W: w, Bias: m.Bias})
	}
	q, err := ovr.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	fe.Proj, fe.OVR, fe.Quant = packed, nil, q
	return fe
}

// v1Packed, v1FrontEnd, v1Cascade and v1Bundle are the wire shapes
// bundle format 1 wrote: every front-end spelled its precision out,
// a projection basis had float64 and float32 fields beside its int8
// one, and the cascade carried its own version.
type v1Packed struct {
	Dim       int
	Rank      int
	Precision string
	F64       []float64
	F32       []float32
	Q8        []byte
	Scale     []float64
}

type v1FrontEnd struct {
	Name      string
	NumPhones int
	Order     int
	TFLLR     *ngram.TFLLR
	OVR       *svm.OneVsRest
	Proj      *v1Packed
	Quant     *svm.Quantized
	Precision string
}

type v1Cascade struct {
	Version   int
	FrontEnd  string
	NumPhones int
	LM        *prlm.System
	Tiers     []cascade.TierPolicy
}

type v1Bundle struct {
	Languages []string
	FrontEnds []v1FrontEnd
	Fusion    *fusion.Backend
	Cascade   *v1Cascade
}

// V1Image seals b as format 1 wrote it. With float64Basis, every
// projected front-end takes the shape the retired float64 rung
// exported: the basis dequantized into F64, scored by the dequantized
// rank-space float64 weights.
func V1Image(b *Bundle, float64Basis bool) ([]byte, error) {
	v1 := v1Bundle{Languages: b.Languages, Fusion: b.Fusion}
	if c := b.Cascade; c != nil {
		v1.Cascade = &v1Cascade{Version: 1, FrontEnd: c.FrontEnd, NumPhones: c.NumPhones, LM: c.LM, Tiers: c.Tiers}
	}
	for _, fe := range b.FrontEnds {
		v := v1FrontEnd{Name: fe.Name, NumPhones: fe.NumPhones, Order: fe.Order, TFLLR: fe.TFLLR, OVR: fe.OVR, Quant: fe.Quant, Precision: "float64"}
		if fe.Quant != nil {
			v.Precision = "int8"
		}
		if pk := fe.Proj; pk != nil {
			v.Proj = &v1Packed{Dim: pk.Dim, Rank: pk.Rank, Precision: "int8", Q8: pk.Q8, Scale: pk.Scale}
			if float64Basis {
				v.Proj = &v1Packed{Dim: pk.Dim, Rank: pk.Rank, Precision: "float64"}
				for k, w := range pk.Q8 {
					v.Proj.F64 = append(v.Proj.F64, pk.Scale[k%pk.Rank]*float64(int8(w)))
				}
				v.OVR, v.Quant, v.Precision = fe.Quant.Dequantize(), nil, "float64"
			}
		}
		v1.FrontEnds = append(v1.FrontEnds, v)
	}
	return MarshalSealed(&v1)
}

// WriteV1Dir writes b into dir as a format-1 build exported it: V1Image
// as bundle.gob, and a manifest with format 1's fields (each geometry's
// precision, the bundle file's name) pinning its SHA-256. It returns the
// image.
func WriteV1Dir(dir string, b *Bundle) ([]byte, error) {
	image, err := V1Image(b, false)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, BundleName), image, 0o644); err != nil {
		return nil, err
	}
	var m Manifest
	m.stampContents(b)
	type v1Dims struct {
		FrontEndDims
		Precision string `json:"precision"`
	}
	var dims []v1Dims
	for i, d := range m.FrontEndDims {
		prec := "float64"
		if b.FrontEnds[i].Quant != nil {
			prec = "int8"
		}
		dims = append(dims, v1Dims{d, prec})
	}
	sum := sha256.Sum256(image)
	data, err := json.MarshalIndent(map[string]any{
		"format_version": 1,
		"front_ends":     m.FrontEnds,
		"num_languages":  m.NumLanguages,
		"fusion":         m.Fusion,
		"cascade":        m.Cascade,
		"front_end_dims": dims,
		"bundle_file":    BundleName,
		"bundle_sha256":  hex.EncodeToString(sum[:]),
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return image, os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644)
}

// pinnedBundleSHA256 holds the SHA-256 of the sealed bundle.gob bytes
// TestCompressedBundleRoundTrip writes: the plain seed-7 bundle and its
// rank-6 int8 compression. Every exported bundle's bytes,
// gob type definitions included, are part of the format: a manifest and
// every fleet push pin their SHA-256. A change to any of these hashes
// must be deliberate, noted with the format change that caused it;
// these are format 2's.
var pinnedBundleSHA256 = map[string]string{
	"plain": "51fddd450b6b2fa88bb822c39eaa86fd50bfdc6368ef9f8b844574bf3744411f",
	"int8":  "a4dd2a093bc54ef52530b7198ffdd12393e57814b4294f63ad1406d2a4aef33e",
}

// checkPinnedBytes hashes dir's sealed bundle file against the pin for
// name.
func checkPinnedBytes(t *testing.T, name, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, BundleName))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != pinnedBundleSHA256[name] {
		t.Errorf("%s bundle.gob SHA-256 is %s, pinned %s: the exported bytes changed", name, got, pinnedBundleSHA256[name])
	}
}

func TestCompressedBundleRoundTrip(t *testing.T) {
	b, probes := trainedBundle(t, 7)
	dim := b.FrontEnds[0].SpaceDim()
	const rank = 6
	plain := t.TempDir()
	if err := SaveBundle(plain, b, Manifest{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	checkPinnedBytes(t, "plain", plain)

	t.Run("int8", func(t *testing.T) {
		cb := &Bundle{Languages: b.Languages, Fusion: b.Fusion}
		for i := range b.FrontEnds {
			cb.FrontEnds = append(cb.FrontEnds, compressFE(t, b.FrontEnds[i], probes, rank))
		}
		dir := t.TempDir()
		if err := SaveBundle(dir, cb, Manifest{Seed: 7}); err != nil {
			t.Fatal(err)
		}
		checkPinnedBytes(t, "int8", dir)
		lb, m, err := LoadBundle(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Manifest geometry records the projection.
		if len(m.FrontEndDims) != len(cb.FrontEnds) {
			t.Fatalf("manifest records %d geometries, want %d", len(m.FrontEndDims), len(cb.FrontEnds))
		}
		for _, d := range m.FrontEndDims {
			if d.Dim != dim || d.Rank != rank {
				t.Fatalf("manifest geometry %+v, want dim %d rank %d", d, dim, rank)
			}
		}
		// Loaded kernels score identically to the pre-save ones.
		for _, v := range probes {
			for f := range cb.FrontEnds {
				pv := cb.FrontEnds[f].Proj.Apply(v)
				a := cb.FrontEnds[f].Scores(pv)
				c := lb.FrontEnds[f].Scores(pv)
				for k := range a {
					if a[k] != c[k] {
						t.Fatalf("front-end %d compressed scores differ after round trip", f)
					}
				}
			}
		}
		// The compressed bundle must be smaller on disk even at this
		// toy dimension (20-dim space, where TFLLR and gob framing
		// dominate); the ≥5× ratio at real supervector dimensions is
		// gated by the internal/e2e compress drill and
		// BENCH_compress.json.
		if cs, us := bundleSize(t, dir), bundleSize(t, plain); cs >= us {
			t.Fatalf("int8 bundle is %d bytes vs %d uncompressed: expected smaller", cs, us)
		}
	})
}

func bundleSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, BundleName))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestCompressedBundleValidateRejectsMismatches(t *testing.T) {
	b, probes := trainedBundle(t, 9)
	cb := &Bundle{Languages: b.Languages}
	for i := range b.FrontEnds {
		cb.FrontEnds = append(cb.FrontEnds, compressFE(t, b.FrontEnds[i], probes, 5))
	}
	if err := cb.Validate(); err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*Bundle){
		"rank disagrees with kernel dim": func(x *Bundle) { x.FrontEnds[0].Quant.Dim = 9 },
		"projection without kernel":      func(x *Bundle) { x.FrontEnds[1].Quant = nil },
		"projection dim vs space":        func(x *Bundle) { x.FrontEnds[0].Proj.Dim = 4 },
	}
	for name, mutate := range mutations {
		x := &Bundle{Languages: cb.Languages}
		for i := range cb.FrontEnds {
			fe := cb.FrontEnds[i]
			q := *fe.Quant
			fe.Quant = &q
			if fe.Proj != nil {
				p := *fe.Proj
				fe.Proj = &p
			}
			x.FrontEnds = append(x.FrontEnds, fe)
		}
		mutate(x)
		if err := x.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the mismatch", name)
		}
	}
}

// TestManifestDimsMismatchRejected is the registry-facing half of the
// dimension fix: a manifest whose recorded projection rank disagrees with
// the bundle it sits next to (wrong file swapped in, mixed generations)
// must fail the load as corruption — never reach scoring.
func TestManifestDimsMismatchRejected(t *testing.T) {
	b, probes := trainedBundle(t, 11)
	cb := &Bundle{Languages: b.Languages}
	for i := range b.FrontEnds {
		cb.FrontEnds = append(cb.FrontEnds, compressFE(t, b.FrontEnds[i], probes, 4))
	}
	dir := t.TempDir()
	if err := SaveBundle(dir, cb, Manifest{Seed: 11}); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(data), `"rank": 4`, `"rank": 8`, 1)
	if doctored == string(data) {
		t.Fatal("manifest did not contain the expected rank field")
	}
	if err := os.WriteFile(mpath, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	// The doctored manifest no longer matches the bundle's SHA? No — the
	// SHA covers the bundle file, not the manifest, so only the dims
	// check can catch this.
	if _, _, err := LoadBundle(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rank-mismatched manifest loaded: err=%v, want ErrCorrupt", err)
	}
}

// TestManifestWithoutDimsRefused: format 2 requires one geometry per
// front-end, so a manifest without front_end_dims describes no bundle
// and its load fails as corruption.
func TestManifestWithoutDimsRefused(t *testing.T) {
	b, _ := trainedBundle(t, 13)
	dir := t.TempDir()
	if err := SaveBundle(dir, b, Manifest{Seed: 13}); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	start := strings.Index(s, `"front_end_dims"`)
	if start < 0 {
		t.Fatal("manifest has no front_end_dims to strip")
	}
	end := strings.Index(s[start:], "],") + start + 2
	s = s[:start] + s[end:]
	if err := os.WriteFile(mpath, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadBundle(dir); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "0 front-end geometries") {
		t.Fatalf("manifest without geometry: err=%v, want ErrCorrupt naming the missing geometries", err)
	}
}
