package persist

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fusion"
	"repro/internal/gmm"
	"repro/internal/lm"
	"repro/internal/ngram"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
)

func TestRoundTripSVMOneVsRest(t *testing.T) {
	r := rng.New(1)
	var xs []*sparse.Vector
	var ys []int
	for i := 0; i < 60; i++ {
		x := make([]float64, 10)
		k := i % 3
		x[k*3] = 2 + r.Norm()
		xs = append(xs, sparse.FromDense(x))
		ys = append(ys, k)
	}
	ovr := svm.TrainOneVsRest(xs, ys, 3, 10, svm.DefaultOptions())

	path := filepath.Join(t.TempDir(), "ovr.gob")
	if err := Save(path, ovr); err != nil {
		t.Fatal(err)
	}
	var loaded svm.OneVsRest
	if err := Load(path, &loaded); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[:10] {
		a, b := ovr.Scores(x), loaded.Scores(x)
		for k := range a {
			if a[k] != b[k] {
				t.Fatal("scores differ after round trip")
			}
		}
	}
}

func TestRoundTripGMMRestoresCaches(t *testing.T) {
	r := rng.New(2)
	data := make([][]float64, 300)
	for i := range data {
		data[i] = []float64{r.Norm(), r.Norm() + 3}
	}
	g := gmm.Train(r, data, 2, 3, 5, 5)

	sealed, err := MarshalSealed(g)
	if err != nil {
		t.Fatal(err)
	}
	var loaded gmm.GMM
	if err := UnmarshalSealed(sealed, &loaded); err != nil {
		t.Fatal(err)
	}
	// LogProb uses the rebuilt cache — must match exactly and be finite.
	for _, x := range data[:20] {
		a, b := g.LogProb(x), loaded.LogProb(x)
		if math.IsNaN(b) || a != b {
			t.Fatalf("LogProb after load: %v vs %v", b, a)
		}
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripTFLLR(t *testing.T) {
	vecs := []*sparse.Vector{sparse.FromMap(map[int32]float64{0: 0.5, 3: 0.5})}
	tf := ngram.EstimateTFLLR(vecs, 6, 1e-5)
	sealed, err := MarshalSealed(tf)
	if err != nil {
		t.Fatal(err)
	}
	var loaded ngram.TFLLR
	if err := UnmarshalSealed(sealed, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Dim() != 6 {
		t.Fatalf("Dim after load = %d", loaded.Dim())
	}
	for q := int32(0); q < 6; q++ {
		if tf.Scale(q) != loaded.Scale(q) {
			t.Fatal("scales differ after round trip")
		}
	}
}

func TestRoundTripBigramLM(t *testing.T) {
	m := lm.TrainKneserNey(5, [][]int{{0, 1, 2, 3, 4, 0, 1}}, 0.75)
	sealed, err := MarshalSealed(m)
	if err != nil {
		t.Fatal(err)
	}
	var loaded lm.Bigram
	if err := UnmarshalSealed(sealed, &loaded); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if m.LogProb(a, b) != loaded.LogProb(a, b) {
				t.Fatal("LM probabilities differ after round trip")
			}
		}
	}
}

func TestRoundTripFusionBackend(t *testing.T) {
	r := rng.New(3)
	var x [][]float64
	var labels []int
	for i := 0; i < 200; i++ {
		k := i % 2
		x = append(x, []float64{float64(2*k) + 0.3*r.Norm(), r.Norm(), r.Norm()})
		labels = append(labels, k)
	}
	b, err := fusion.Train(x, labels, 2, fusion.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := MarshalSealed(b)
	if err != nil {
		t.Fatal(err)
	}
	var loaded fusion.Backend
	if err := UnmarshalSealed(sealed, &loaded); err != nil {
		t.Fatal(err)
	}
	for _, xi := range x[:10] {
		a, c := b.Score(xi), loaded.Score(xi)
		for k := range a {
			if a[k] != c[k] {
				t.Fatal("fusion scores differ after round trip")
			}
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	data, err := MarshalSealed(42)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the header by flipping a byte inside the magic string, then
	// reseal so the footer check passes and the header check must catch it.
	payload := data[:len(data)-footerSize]
	idx := bytes.Index(payload, []byte("repro-model"))
	if idx < 0 {
		t.Fatal("magic not found in stream")
	}
	payload[idx] ^= 0xff
	var v int
	if err := UnmarshalSealed(Seal(payload), &v); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("corrupted header: err %v, want bad magic", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	var v int
	if err := Load(filepath.Join(t.TempDir(), "nope.gob"), &v); err == nil {
		t.Fatal("accepted missing file")
	}
}

func TestSaveAtomicOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := Save(path, 1); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, 2); err != nil {
		t.Fatal(err)
	}
	var v int
	if err := Load(path, &v); err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("loaded %d, want 2", v)
	}
}
