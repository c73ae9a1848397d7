package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fusion"
	"repro/internal/ngram"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// trainedBundle builds a small but fully populated bundle — every type a
// scoring process loads (TFLLR scalers, OVR sets, fusion backend) — plus
// held-out vectors to compare scores on after the round trip.
func trainedBundle(t *testing.T, seed uint64) (*Bundle, []*sparse.Vector) {
	t.Helper()
	return trainedBundleOver(t, seed, 4)
}

// trainedBundleOver is trainedBundle over numPhones phones.
func trainedBundleOver(t *testing.T, seed uint64, numPhones int) (*Bundle, []*sparse.Vector) {
	t.Helper()
	const (
		order = 2
		langs = 3
	)
	space := ngram.NewSpace(numPhones, order)
	r := rng.New(seed)
	b := &Bundle{Languages: []string{"aa", "bb", "cc"}}
	var probes []*sparse.Vector
	var feScores [][][]float64
	var labels []int
	for f := 0; f < 2; f++ {
		var xs []*sparse.Vector
		labels = labels[:0]
		for i := 0; i < 45; i++ {
			k := i % langs
			xs = append(xs, sparse.FromMap(map[int32]float64{
				int32(k * 5):                   2 + 0.3*r.Norm(),
				int32(r.Intn(space.Dim())):     r.Float64(),
				int32((k*5 + f) % space.Dim()): 1,
			}))
			labels = append(labels, k)
		}
		tf := ngram.EstimateTFLLR(xs, space.Dim(), 1e-5)
		for _, v := range xs {
			tf.Apply(v)
		}
		b.FrontEnds = append(b.FrontEnds, FrontEndModel{
			Name:      "FE" + string(rune('A'+f)),
			NumPhones: numPhones,
			Order:     order,
			TFLLR:     tf,
			OVR:       svm.TrainOVR(xs, labels, langs, space.Dim(), svm.DefaultOptions()),
		})
		if f == 0 {
			probes = xs[:8]
		}
		rows := make([][]float64, len(xs))
		for i, v := range xs {
			rows[i] = b.FrontEnds[f].OVR.Scores(v)
		}
		feScores = append(feScores, rows)
	}
	x, y := fusion.Trials(feScores, nil, labels, nil)
	bk, err := fusion.Train(x, y, 2, fusion.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.Fusion = bk
	return b, probes
}

func TestBundleRoundTripAllTypes(t *testing.T) {
	b, probes := trainedBundle(t, 1)
	dir := t.TempDir()
	if err := SaveBundle(dir, b, Manifest{Seed: 1, Scale: "test", GitDescribe: "abc123"}); err != nil {
		t.Fatal(err)
	}

	lb, m, err := LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Manifest: provenance preserved, contents summary derived.
	if m.FormatVersion != BundleFormatVersion {
		t.Fatalf("format version %d", m.FormatVersion)
	}
	if m.Seed != 1 || m.Scale != "test" || m.GitDescribe != "abc123" {
		t.Fatalf("provenance lost: %+v", m)
	}
	if len(m.FrontEnds) != 2 || m.NumLanguages != 3 || !m.Fusion {
		t.Fatalf("contents summary wrong: %+v", m)
	}

	// Bundle: structure intact.
	if len(lb.Languages) != 3 || len(lb.FrontEnds) != 2 || lb.Fusion == nil {
		t.Fatal("bundle structure lost in round trip")
	}
	for f := range b.FrontEnds {
		want, got := &b.FrontEnds[f], &lb.FrontEnds[f]
		if got.Name != want.Name || got.NumPhones != want.NumPhones || got.Order != want.Order {
			t.Fatalf("front-end %d metadata changed: %+v", f, got)
		}
		if got.TFLLR == nil {
			t.Fatalf("front-end %d lost its TFLLR scaler", f)
		}
	}

	// Every loaded type must score identically to the original.
	for _, v := range probes {
		for f := range b.FrontEnds {
			a, c := b.FrontEnds[f].OVR.Scores(v), lb.FrontEnds[f].OVR.Scores(v)
			for k := range a {
				if a[k] != c[k] {
					t.Fatalf("front-end %d OVR scores differ after round trip", f)
				}
			}
		}
		raw := v.Clone()
		b.FrontEnds[0].TFLLR.Apply(raw)
		raw2 := v.Clone()
		lb.FrontEnds[0].TFLLR.Apply(raw2)
		if len(raw.Val) != len(raw2.Val) {
			t.Fatal("TFLLR output shape changed")
		}
		for i := range raw.Val {
			if raw.Val[i] != raw2.Val[i] {
				t.Fatal("TFLLR scaling differs after round trip")
			}
		}
	}
	x := []float64{0.4, -0.2}
	a, c := b.Fusion.Score(x), lb.Fusion.Score(x)
	for k := range a {
		if a[k] != c[k] {
			t.Fatal("fusion scores differ after round trip")
		}
	}
}

func TestBundleTruncatedFileIsWrappedError(t *testing.T) {
	b, _ := trainedBundle(t, 2)
	dir := t.TempDir()
	if err := SaveBundle(dir, b, Manifest{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bundle.gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the gob body mid-stream (past the header so the magic check
	// passes) at several depths: every cut must surface as a wrapped
	// "persist:" error, never a panic.
	for _, frac := range []float64{0.3, 0.7, 0.95} {
		n := int(float64(len(data)) * frac)
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadBundle(dir)
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes loaded successfully", n, len(data))
		}
		if !strings.Contains(err.Error(), "persist:") {
			t.Fatalf("truncation error not wrapped: %v", err)
		}
	}
}

func TestBundleCorruptByteIsErrCorrupt(t *testing.T) {
	b, _ := trainedBundle(t, 7)
	dir := t.TempDir()
	if err := SaveBundle(dir, b, Manifest{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bundle.gob")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte at several depths — payload, near the footer, inside
	// the footer. Each must be detected as ErrCorrupt (by the manifest's
	// bundle SHA-256 and again by the file's own footer).
	for _, frac := range []float64{0.1, 0.5, 0.999} {
		data := append([]byte(nil), orig...)
		data[int(float64(len(data))*frac)] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadBundle(dir)
		if err == nil {
			t.Fatalf("flipped byte at %.0f%% loaded successfully", frac*100)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped byte at %.0f%%: error %v is not ErrCorrupt", frac*100, err)
		}
	}
}

func TestBundleTornTailIsErrCorrupt(t *testing.T) {
	b, _ := trainedBundle(t, 8)
	dir := t.TempDir()
	if err := SaveBundle(dir, b, Manifest{Seed: 8}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bundle.gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadBundle(dir)
	if err == nil {
		t.Fatal("torn bundle loaded successfully")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn-tail error %v is not ErrCorrupt", err)
	}
}

// TestBundleManifestWithoutSHARefused: every format-2 manifest pins its
// bundle's SHA-256, so one without bundle_sha256 fails as corruption.
func TestBundleManifestWithoutSHARefused(t *testing.T) {
	b, _ := trainedBundle(t, 9)
	dir := t.TempDir()
	if err := SaveBundle(dir, b, Manifest{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "bundle_sha256")
	stripped, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadBundle(dir); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "SHA-256") {
		t.Fatalf("manifest without bundle_sha256: err=%v, want the SHA-256 mismatch", err)
	}
}

func TestLoadBundleRejectsBadFormatVersion(t *testing.T) {
	b, _ := trainedBundle(t, 3)
	dir := t.TempDir()
	if err := SaveBundle(dir, b, Manifest{}); err != nil {
		t.Fatal(err)
	}
	mf := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(mf)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), fmt.Sprintf(`"format_version": %d`, BundleFormatVersion), `"format_version": 99`, 1)
	if bad == string(data) {
		t.Fatal("manifest fixture did not contain the format version")
	}
	if err := os.WriteFile(mf, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("persist: bundle format 99 (want %d): re-export with lre -export-models DIR", BundleFormatVersion)
	if _, _, err := LoadBundle(dir); err == nil || err.Error() != want {
		t.Fatalf("format version 99: err=%v, want %q", err, want)
	}
}

func TestLoadBundleMissingPieces(t *testing.T) {
	// No manifest at all.
	if _, _, err := LoadBundle(t.TempDir()); err == nil {
		t.Fatal("empty directory loaded as a bundle")
	}
	// Manifest present but bundle file missing.
	b, _ := trainedBundle(t, 4)
	dir := t.TempDir()
	if err := SaveBundle(dir, b, Manifest{}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "bundle.gob")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadBundle(dir); err == nil || !strings.Contains(err.Error(), "persist:") {
		t.Fatalf("missing bundle file: %v", err)
	}
}

func TestSaveBundleRejectsInvalid(t *testing.T) {
	b, _ := trainedBundle(t, 5)
	dir := t.TempDir()
	bad := &Bundle{Languages: b.Languages} // no front-ends
	if err := SaveBundle(dir, bad, Manifest{}); err == nil {
		t.Fatal("bundle without front-ends saved")
	}
	// Class-count mismatch between OVR and the language list.
	bad2 := &Bundle{Languages: []string{"only-one"}, FrontEnds: b.FrontEnds}
	if err := SaveBundle(dir, bad2, Manifest{}); err == nil {
		t.Fatal("class/language mismatch saved")
	}
}

// TestLoadBundleSwapAfterOpen replaces bundle.gob with another valid
// bundle between LoadBundle's verification and its decode — renamed over
// the path, or rewritten in place (same inode). The load must return the
// bundle whose SHA-256 the manifest pins, never the one swapped in under
// the original manifest. The bundles are a few hundred KB, more than any
// read-ahead buffer holds.
func TestLoadBundleSwapAfterOpen(t *testing.T) {
	orig, probes := trainedBundleOver(t, 11, 96)
	other, _ := trainedBundleOver(t, 12, 96)
	for _, tc := range []struct {
		name string
		swap func(src, dst string) error
	}{
		{"rename", os.Rename},
		{"overwrite in place", func(src, dst string) error {
			data, err := os.ReadFile(src)
			if err != nil {
				return err
			}
			f, err := os.OpenFile(dst, os.O_WRONLY|os.O_TRUNC, 0)
			if err != nil {
				return err
			}
			if _, err := f.Write(data); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, otherDir := t.TempDir(), t.TempDir()
			if err := SaveBundle(dir, orig, Manifest{Seed: 11}); err != nil {
				t.Fatal(err)
			}
			if err := SaveBundle(otherDir, other, Manifest{Seed: 12}); err != nil {
				t.Fatal(err)
			}
			swapped := false
			testHookBundleOpened = func() {
				if err := tc.swap(filepath.Join(otherDir, "bundle.gob"), filepath.Join(dir, "bundle.gob")); err != nil {
					t.Error(err)
				}
				swapped = true
			}
			defer func() { testHookBundleOpened = func() {} }()

			lb, _, err := LoadBundle(dir)
			if !swapped {
				t.Fatal("the swap hook never ran")
			}
			if err != nil {
				t.Fatalf("load across the swap: %v", err)
			}
			differs := false
			for _, v := range probes {
				for f := range orig.FrontEnds {
					want, got, swap := orig.FrontEnds[f].OVR.Scores(v), lb.FrontEnds[f].OVR.Scores(v), other.FrontEnds[f].OVR.Scores(v)
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("front-end %d class %d: loaded %v, the manifest's bundle scores %v", f, k, got[k], want[k])
						}
						differs = differs || swap[k] != want[k]
					}
				}
			}
			if !differs {
				t.Fatal("the two bundles score alike; the test cannot tell them apart")
			}

			// The swap is visible to the next load: the manifest no
			// longer matches the file on disk.
			testHookBundleOpened = func() {}
			if _, _, err := LoadBundle(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load after the swap: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestShardManifestSelectsFromTheExport: a directory holding an export's
// bundle.gob under a shard manifest loads only the assigned front-ends,
// without fusion, and the selected front-ends equal the export's. A
// manifest outside a fleet keeps the whole bundle.
func TestShardManifestSelectsFromTheExport(t *testing.T) {
	b, _ := trainedBundle(t, 5)
	dir := t.TempDir()
	if err := SaveBundle(dir, b, Manifest{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	full, m, err := LoadBundle(dir)
	if err != nil || len(full.FrontEnds) != 2 || full.Fusion == nil {
		t.Fatalf("export loads %v front-ends, fusion %v (%v)", len(full.FrontEnds), full.Fusion != nil, err)
	}
	shard := *m
	shard.ClusterGeneration = 3
	shard.FrontEnds, shard.FrontEndDims = []string{"FEB"}, m.FrontEndDims[1:]
	data, err := json.Marshal(&shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sb, sm, err := LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.FrontEnds) != 1 || sb.Fusion != nil || sb.Cascade != nil || sm.ClusterGeneration != 3 {
		t.Fatalf("shard manifest loads %d front-ends, fusion %v, generation %d; want FEB alone at 3", len(sb.FrontEnds), sb.Fusion != nil, sm.ClusterGeneration)
	}
	if !reflect.DeepEqual(sb.FrontEnds[0], full.FrontEnds[1]) || !reflect.DeepEqual(sb.Languages, full.Languages) {
		t.Fatal("the selected front-end differs from the export's")
	}
}

// TestOpenImageSurvivesRenameOver: an Image reads back the bytes its
// load verified after a new export is renamed over the file.
func TestOpenImageSurvivesRenameOver(t *testing.T) {
	orig, _ := trainedBundle(t, 21)
	other, _ := trainedBundle(t, 22)
	dir := t.TempDir()
	if err := SaveBundle(dir, orig, Manifest{Seed: 21}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "bundle.gob"))
	if err != nil {
		t.Fatal(err)
	}
	_, m, _, im, err := ResolveBundleImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	if im.SHA256() != m.BundleSHA256 {
		t.Fatalf("image SHA-256 %s, manifest pins %s", im.SHA256(), m.BundleSHA256)
	}
	if err := SaveBundle(dir, other, Manifest{Seed: 22}); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(im.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the open image reads the new export, not the bytes it verified")
	}
}
