package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ngram"
	"repro/internal/persist"
	"repro/internal/proj"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/testbundle"
)

// compressTestBundle rewrites the serve fixture bundle into compressed
// form: a rank-r projection fitted on TFLLR-scaled probe vectors, OVR
// weights projected into the rank space, and for int8 the projected
// weights quantized. The fusion backend is kept — structurally it only
// sees score rows, whatever space they came from.
func compressTestBundle(t *testing.T, seed uint64, rank int, prec svm.Precision) *persist.Bundle {
	t.Helper()
	b := testbundle.New(seed)
	space := ngram.NewSpace(testbundle.Phones, testbundle.Order)
	dim := space.Dim()
	r := rng.New(seed ^ 0xc0ffee)
	var probes []*sparse.Vector
	for i := 0; i < 40; i++ {
		m := make(map[int32]float64)
		for j := 0; j < 8; j++ {
			m[int32(r.Intn(dim))] = r.Float64()
		}
		probes = append(probes, sparse.FromMap(m))
	}
	for f := range b.FrontEnds {
		fe := &b.FrontEnds[f]
		scaled := make([]*sparse.Vector, len(probes))
		for i, p := range probes {
			v := p.Clone()
			fe.TFLLR.Apply(v)
			scaled[i] = v
		}
		p, err := proj.Fit(scaled, dim, proj.Config{Rank: rank, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := p.Pack(prec)
		if err != nil {
			t.Fatal(err)
		}
		ovr := &svm.OneVsRest{NumClasses: fe.OVR.NumClasses}
		for _, mdl := range fe.OVR.Models {
			w := make([]float64, rank)
			for d := 0; d < rank; d++ {
				row := p.Basis[d*dim : (d+1)*dim]
				var s float64
				for j, wv := range mdl.W {
					s += wv * row[j]
				}
				w[d] = s
			}
			ovr.Models = append(ovr.Models, &svm.Model{W: w, Bias: mdl.Bias})
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
	}
	return b
}

// expectedCompressedScores is the local ground truth for the projected
// path: TFLLR → projection → precision-dispatched kernel.
func expectedCompressedScores(b *persist.Bundle, raw *sparse.Vector) map[string][]float64 {
	out := make(map[string][]float64)
	for i := range b.FrontEnds {
		fe := &b.FrontEnds[i]
		v := raw.Clone()
		if fe.TFLLR != nil {
			fe.TFLLR.Apply(v)
		}
		out[fe.Name] = fe.Scores(fe.Proj.Apply(v))
	}
	return out
}

// TestServeCompressedBundleEndToEnd drives a raw supervector through the
// full HTTP path against a compressed bundle at every precision rung and
// pins the response to the local projected-scoring ground truth — the
// serving layer must apply TFLLR, then the projection, then the
// precision-dispatched kernel, exactly once each.
func TestServeCompressedBundleEndToEnd(t *testing.T) {
	const rank = 6
	for _, prec := range []svm.Precision{svm.Float64, svm.Float32, svm.Int8} {
		t.Run(prec.String(), func(t *testing.T) {
			dir := t.TempDir()
			b := compressTestBundle(t, 21, rank, prec)
			if err := persist.SaveBundle(dir, b, persist.Manifest{Seed: 21}); err != nil {
				t.Fatal(err)
			}
			s := newTestServer(t, dir, nil)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			raw := testbundle.Vector(31)
			want := expectedCompressedScores(b, raw)
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, raw))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var sr ScoreResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			testbundle.SameRows(t, sr.Scores, want)
			if len(sr.Fused) != testbundle.Langs {
				t.Fatalf("fused has %d entries, want %d (full battery)", len(sr.Fused), testbundle.Langs)
			}

			// The model footprint surfaces on /metricsz: precision/rank meta
			// and the compression gauges of the live generation.
			mresp, mbody := getJSON(t, ts.Client(), ts.URL+"/metricsz")
			if mresp.StatusCode != http.StatusOK {
				t.Fatalf("/metricsz status %d", mresp.StatusCode)
			}
			var rep struct {
				Meta   map[string]string  `json:"meta"`
				Gauges map[string]float64 `json:"gauges"`
			}
			if err := json.Unmarshal(mbody, &rep); err != nil {
				t.Fatal(err)
			}
			if got := rep.Meta["model_precision"]; got != prec.String() {
				t.Fatalf("model_precision meta %q, want %q", got, prec)
			}
			if got := rep.Meta["model_rank"]; got != "6" {
				t.Fatalf("model_rank meta %q, want 6", got)
			}
			for _, g := range []string{"serve.model.bundle_bytes", "serve.model.packed_bytes", "serve.model.rank", "serve.model.precision_bits"} {
				if rep.Gauges[g] <= 0 {
					t.Fatalf("gauge %s = %v, want > 0", g, rep.Gauges[g])
				}
			}
			if rep.Gauges["serve.model.rank"] != rank {
				t.Fatalf("rank gauge %v, want %d", rep.Gauges["serve.model.rank"], rank)
			}
		})
	}
}

func getJSON(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestReloadRejectsDimensionMismatchedBundle is the serving half of the
// manifest-geometry fix: a bundle directory whose manifest records a
// different projection rank than the bundle carries must fail Reload as
// corruption while the previously loaded model keeps serving.
func TestReloadRejectsDimensionMismatchedBundle(t *testing.T) {
	dir := t.TempDir()
	testbundle.Write(t, dir, 4)
	reg := NewRegistry(dir)
	if _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	prev := reg.Current()

	cb := compressTestBundle(t, 22, 5, svm.Int8)
	if err := persist.SaveBundle(dir, cb, persist.Manifest{Seed: 22}); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, persist.ManifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(data), `"rank": 5`, `"rank": 9`, 1)
	if doctored == string(data) {
		t.Fatal("manifest did not record the projection rank")
	}
	if err := os.WriteFile(mpath, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Reload(); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("reload of rank-mismatched bundle: err=%v, want ErrCorrupt", err)
	}
	if got := reg.Current(); got != prev {
		t.Fatal("failed reload swapped the model")
	}

	// Undoctored, the compressed bundle hot-swaps in cleanly.
	if err := os.WriteFile(mpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if rank, prec := m.CompressionSummary(); rank != 5 || prec != "int8" {
		t.Fatalf("compression summary (%d, %s), want (5, int8)", rank, prec)
	}
}
