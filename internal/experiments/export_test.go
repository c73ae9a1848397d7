package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/adapt"
	"repro/internal/persist"
	"repro/internal/sparse"
	"repro/internal/synthlang"
)

// TestExportModelsRoundTrip is the export↔serve contract: a bundle written
// by ExportModels must reproduce the batch pipeline's baseline score
// matrix bit-for-bit when its OVR sets score the pipeline's own (already
// TFLLR-scaled) test supervectors.
func TestExportModelsRoundTrip(t *testing.T) {
	p := sharedPipeline(t)
	dir := t.TempDir()
	m, err := p.ExportModels(dir, "test-describe")
	if err != nil {
		t.Fatal(err)
	}
	if m.FormatVersion != persist.BundleFormatVersion {
		t.Fatalf("manifest format version %d", m.FormatVersion)
	}
	if m.Seed != p.Seed || m.Scale != p.Scale.String() || m.GitDescribe != "test-describe" {
		t.Fatalf("manifest provenance wrong: %+v", m)
	}
	if m.CreatedAt == "" {
		t.Fatal("manifest has no creation timestamp")
	}
	if len(m.FrontEnds) != len(p.FEs) {
		t.Fatalf("manifest lists %d front-ends, pipeline has %d", len(m.FrontEnds), len(p.FEs))
	}

	b, _, err := persist.LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Languages) != NumLangs {
		t.Fatalf("bundle has %d languages, want %d", len(b.Languages), NumLangs)
	}
	for k, name := range b.Languages {
		if name != synthlang.LanguageNames[k] {
			t.Fatalf("language %d is %q, want %q", k, name, synthlang.LanguageNames[k])
		}
	}
	if !m.Fusion || b.Fusion == nil {
		t.Fatal("exported bundle has no fusion backend")
	}

	// Exact score equality on every pooled test utterance × front-end.
	for q, fe := range p.FEs {
		if b.FrontEnds[q].Name != fe.Name {
			t.Fatalf("front-end %d is %q, want %q", q, b.FrontEnds[q].Name, fe.Name)
		}
		for j := range p.TestLabels {
			got := b.FrontEnds[q].OVR.Scores(p.Data[q].Test[j])
			want := p.BaselineScores[q][j]
			if len(got) != len(want) {
				t.Fatalf("%s: %d scores, want %d", fe.Name, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s utt %d score[%d]: bundle %v vs pipeline %v",
						fe.Name, j, k, got[k], want[k])
				}
			}
		}
	}
}

// TestBuildBundleValidates guards the invariants the server relies on.
func TestBuildBundleValidates(t *testing.T) {
	p := sharedPipeline(t)
	b := p.BuildBundle()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.FrontEnds) != len(p.FEs) {
		t.Fatalf("%d front-ends, want %d", len(b.FrontEnds), len(p.FEs))
	}
	for q, fe := range b.FrontEnds {
		if fe.TFLLR == nil {
			t.Fatalf("front-end %q exported without its TFLLR scaler", fe.Name)
		}
		if fe.NumPhones != p.FEs[q].Set.Size || fe.Order != p.FEs[q].Space.Order {
			t.Fatalf("front-end %q space %d^%d does not match pipeline", fe.Name, fe.NumPhones, fe.Order)
		}
	}
}

// TestExportModelsSidecarRoundTrip: the streamed adapt sidecar an export
// writes loads back as exactly the set BuildAdaptSet freezes — every
// train and holdout vector bit for bit, and every other field.
func TestExportModelsSidecarRoundTrip(t *testing.T) {
	p := sharedPipeline(t)
	dir := t.TempDir()
	if _, err := p.ExportModels(dir, "test"); err != nil {
		t.Fatal(err)
	}
	got, err := adapt.LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := p.BuildAdaptSet()
	if len(got.FrontEnds) != len(want.FrontEnds) {
		t.Fatalf("sidecar has %d front-ends, want %d", len(got.FrontEnds), len(want.FrontEnds))
	}
	for q := range want.FrontEnds {
		g, w := &got.FrontEnds[q], &want.FrontEnds[q]
		for _, split := range []struct {
			name      string
			got, want []*sparse.Vector
		}{{"train", g.Train, w.Train}, {"holdout", g.Holdout, w.Holdout}} {
			if len(split.got) != len(split.want) {
				t.Fatalf("%s %s: %d vectors, want %d", w.Name, split.name, len(split.got), len(split.want))
			}
			for i, wv := range split.want {
				gv := split.got[i]
				if len(gv.Idx) != len(wv.Idx) || len(gv.Val) != len(wv.Val) {
					t.Fatalf("%s %s vector %d: %d/%d entries, want %d/%d",
						w.Name, split.name, i, len(gv.Idx), len(gv.Val), len(wv.Idx), len(wv.Val))
				}
				for j := range wv.Idx {
					if gv.Idx[j] != wv.Idx[j] || math.Float64bits(gv.Val[j]) != math.Float64bits(wv.Val[j]) {
						t.Fatalf("%s %s vector %d entry %d differs", w.Name, split.name, i, j)
					}
				}
			}
		}
		// Vectors compared; the rest of the set must match as a whole.
		g.Train, g.Holdout, w.Train, w.Holdout = nil, nil, nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sidecar fields differ from BuildAdaptSet:\n got %+v\nwant %+v", got, want)
	}
}
