package persist

import (
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
// the given rank and precision: a projection fitted on the probe
// vectors, the float64 weights projected into the rank space (w' = B·w,
// so w'·Bx ≈ w·x), and for int8 the projected weights quantized with the
// float64 set dropped — the same shape the experiments layer exports.
func compressFE(t *testing.T, fe FrontEndModel, probes []*sparse.Vector, rank int, prec svm.Precision) FrontEndModel {
	t.Helper()
	p, err := proj.Fit(probes, fe.SpaceDim(), proj.Config{Rank: rank, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := p.Pack(prec)
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
	fe.Proj = packed
	if prec == svm.Int8 {
		q, err := ovr.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		fe.OVR, fe.Quant, fe.Precision = nil, q, svm.Int8.String()
	} else {
		fe.OVR, fe.Precision = ovr, prec.String()
	}
	return fe
}

func TestCompressedBundleRoundTrip(t *testing.T) {
	b, probes := trainedBundle(t, 7)
	dim := b.FrontEnds[0].SpaceDim()
	const rank = 6

	for _, prec := range []svm.Precision{svm.Float64, svm.Float32, svm.Int8} {
		t.Run(prec.String(), func(t *testing.T) {
			cb := &Bundle{Languages: b.Languages, Fusion: b.Fusion}
			for i := range b.FrontEnds {
				cb.FrontEnds = append(cb.FrontEnds, compressFE(t, b.FrontEnds[i], probes, rank, prec))
			}
			dir := t.TempDir()
			if err := SaveBundle(dir, cb, Manifest{Seed: 7}); err != nil {
				t.Fatal(err)
			}
			lb, m, err := LoadBundle(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Manifest geometry records the projection.
			if len(m.FrontEndDims) != len(cb.FrontEnds) {
				t.Fatalf("manifest records %d geometries, want %d", len(m.FrontEndDims), len(cb.FrontEnds))
			}
			for _, d := range m.FrontEndDims {
				if d.Dim != dim || d.Rank != rank || d.Precision != prec.String() {
					t.Fatalf("manifest geometry %+v, want dim %d rank %d precision %s", d, dim, rank, prec)
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
			// The int8 compressed bundle must be smaller on disk even at
			// this toy dimension (20-dim space, where TFLLR and gob
			// framing dominate); the ≥5× ratio at real supervector
			// dimensions is gated by the internal/e2e compress drill and
			// BENCH_compress.json.
			if prec == svm.Int8 {
				udir := t.TempDir()
				if err := SaveBundle(udir, b, Manifest{Seed: 7}); err != nil {
					t.Fatal(err)
				}
				cs := bundleSize(t, dir)
				us := bundleSize(t, udir)
				if cs >= us {
					t.Fatalf("int8 bundle is %d bytes vs %d uncompressed: expected smaller", cs, us)
				}
			}
		})
	}
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
		cb.FrontEnds = append(cb.FrontEnds, compressFE(t, b.FrontEnds[i], probes, 5, svm.Int8))
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
		cb.FrontEnds = append(cb.FrontEnds, compressFE(t, b.FrontEnds[i], probes, 4, svm.Int8))
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
