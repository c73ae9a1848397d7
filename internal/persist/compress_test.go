package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	fe.Proj, fe.OVR, fe.Quant, fe.Precision = packed, nil, q, "int8"
	return fe
}

// Retire rewrites a compressed bundle into the shape a retired rung
// exported: the basis dequantized into Packed.F64 (precision "float64")
// or Packed.F32 ("float32"), scored by the dequantized rank-space
// float64 weights. b is not modified.
func Retire(b *Bundle, precision string) *Bundle {
	out := *b
	out.FrontEnds = make([]FrontEndModel, len(b.FrontEnds))
	for i, fe := range b.FrontEnds {
		pk := &proj.Packed{Dim: fe.Proj.Dim, Rank: fe.Proj.Rank, Precision: precision}
		for k, w := range fe.Proj.Q8 {
			v := fe.Proj.Scale[k%pk.Rank] * float64(int8(w))
			if precision == "float32" {
				pk.F32 = append(pk.F32, float32(v))
			} else {
				pk.F64 = append(pk.F64, v)
			}
		}
		fe.Proj, fe.OVR, fe.Quant, fe.Precision = pk, fe.Quant.Dequantize(), nil, precision
		out.FrontEnds[i] = fe
	}
	return &out
}

// pinnedBundleSHA256 holds the SHA-256 of the sealed bundle.gob bytes
// TestCompressedBundleRoundTrip writes: the plain seed-7 bundle and its
// rank-6 int8 compression. Every exported bundle's bytes,
// gob type definitions included, are part of the format: a manifest and
// every fleet push pin their SHA-256. A change to any of these hashes
// must be deliberate, noted with the format change that caused it.
var pinnedBundleSHA256 = map[string]string{
	"plain": "0dcb955d8b79db3ceeab7190c43d5e192113825fab9ef969f12b41bc570f95ef",
	"int8":  "c8f4fadcc1eb9fd24d7701016892816bc9694200ccb318b4dff202bb6339d6f2",
}

// checkPinnedBytes hashes dir's sealed bundle file against the pin for
// name.
func checkPinnedBytes(t *testing.T, name, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, defaultBundleFile))
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
			if d.Dim != dim || d.Rank != rank || d.Precision != "int8" {
				t.Fatalf("manifest geometry %+v, want dim %d rank %d precision int8", d, dim, rank)
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
	st, err := os.Stat(filepath.Join(dir, defaultBundleFile))
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
		"int8 kernel without precision":  func(x *Bundle) { x.FrontEnds[0].Precision = "" },
		"precision without kernel":       func(x *Bundle) { x.FrontEnds[1].Quant = nil },
		"unknown precision":              func(x *Bundle) { x.FrontEnds[0].Precision = "bf16" },
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

// TestLegacyManifestWithoutDimsLoads pins the gob/JSON-additive contract:
// a manifest written before FrontEndDims existed (field absent) loads
// fine and only the structural checks apply.
func TestLegacyManifestWithoutDimsLoads(t *testing.T) {
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
	// Strip the front_end_dims block wholesale, as an old writer would
	// never have emitted it.
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
	if _, m, err := LoadBundle(dir); err != nil {
		t.Fatalf("legacy manifest rejected: %v", err)
	} else if len(m.FrontEndDims) != 0 {
		t.Fatalf("stripped manifest still decoded dims: %+v", m.FrontEndDims)
	}
}
