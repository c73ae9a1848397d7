package acousticlr

import (
	"math"
	"testing"

	"repro/internal/feats"
	"repro/internal/rng"
	"repro/internal/synthlang"
	"repro/internal/synthspeech"
)

func TestSDCDimensionsAndContext(t *testing.T) {
	cfg := DefaultSDC()
	if cfg.Dim() != 49 {
		t.Fatalf("7-1-3-7 dim = %d", cfg.Dim())
	}
	// 100 frames of 13-dim cepstra → frames with full context only.
	cep := make([][]float64, 100)
	for i := range cep {
		cep[i] = make([]float64, 13)
		cep[i][0] = float64(i)
	}
	sdc := ComputeSDC(cep, cfg)
	if len(sdc) == 0 {
		t.Fatal("no SDC frames")
	}
	// Need (K−1)·P + D = 19 future frames and D = 1 past.
	wantLen := 100 - 19 - 1
	if len(sdc) != wantLen {
		t.Fatalf("%d SDC frames, want %d", len(sdc), wantLen)
	}
	for _, f := range sdc {
		if len(f) != 49 {
			t.Fatalf("SDC frame dim %d", len(f))
		}
	}
	// With c0 = t, every delta is hi−lo = 2·D = 2.
	for _, f := range sdc {
		for k := 0; k < cfg.K; k++ {
			if math.Abs(f[k*cfg.N]-2) > 1e-12 {
				t.Fatalf("delta = %v, want 2", f[k*cfg.N])
			}
		}
	}
}

func TestSDCTooShort(t *testing.T) {
	cep := make([][]float64, 10)
	for i := range cep {
		cep[i] = make([]float64, 13)
	}
	if got := ComputeSDC(cep, DefaultSDC()); len(got) != 0 {
		t.Fatalf("short input produced %d frames", len(got))
	}
}

// langFrames renders audio for a language and returns its SDC frames.
func langFrames(t *testing.T, lang *synthlang.Language, seed uint64, utts int, durS float64) [][]float64 {
	t.Helper()
	ext := feats.NewExtractor(feats.DefaultConfig())
	synth := synthspeech.New()
	r := rng.New(seed)
	var out [][]float64
	for i := 0; i < utts; i++ {
		spk := synthlang.NewSpeaker(r, i)
		u := lang.Sample(r, durS, spk, synthlang.ChannelCTSClean)
		wav := synth.Render(r, u)
		cep := ext.MFCC(wav)
		feats.CMVN(cep)
		out = append(out, ComputeSDC(cep, DefaultSDC())...)
	}
	return out
}

func TestRecognizerSeparatesGaussianLanguages(t *testing.T) {
	// Machinery check on data with a genuine acoustic difference:
	// "languages" are shifted Gaussian clouds. The GMM-UBM recognizer
	// must separate them perfectly.
	r := rng.New(1)
	mk := func(mu float64, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = []float64{mu + r.Norm(), r.Norm()}
		}
		return out
	}
	train := [][][]float64{mk(-2, 500), mk(2, 500)}
	cfg := DefaultConfig()
	cfg.UBMMix = 4
	rec, err := Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for li, mu := range []float64{-2, 2} {
		for i := 0; i < 10; i++ {
			if rec.Classify(mk(mu, 50)) == li {
				correct++
			}
		}
	}
	if correct < 19 {
		t.Fatalf("separable Gaussian languages: %d/20 correct", correct)
	}
	// MAP adaptation must have moved means.
	moved := false
	for c := 0; c < rec.UBM.NumComp && !moved; c++ {
		for d := 0; d < rec.UBM.Dim; d++ {
			if rec.LangModels[0].Means[c][d] != rec.UBM.Means[c][d] {
				moved = true
				break
			}
		}
	}
	if !moved {
		t.Fatal("MAP adaptation did not move any mean")
	}
}

func TestAcousticBaselineNearChanceOnPhonotacticCorpus(t *testing.T) {
	// A corpus property this repository depends on and documents
	// (EXPERIMENTS.md): the synthetic languages share one acoustic phone
	// inventory and differ only phonotactically, so the *acoustic*
	// GMM-UBM baseline carries almost no language information here —
	// while the phonotactic stack reaches single-digit 30s EERs. The
	// test pins that contrast (and would flag a corpus change that leaks
	// language identity into the raw audio).
	if testing.Short() {
		t.Skip("acoustic training is slow")
	}
	langs := synthlang.Generate(synthlang.DefaultConfig(), 42)[:3]
	var trainFrames [][][]float64
	for li, lang := range langs {
		trainFrames = append(trainFrames, langFrames(t, lang, uint64(10+li), 6, 8))
	}
	cfg := DefaultConfig()
	cfg.UBMMix = 16
	rec, err := Train(cfg, trainFrames)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for li, lang := range langs {
		for i := 0; i < 4; i++ {
			frames := langFrames(t, lang, uint64(100+10*li+i), 1, 10)
			if rec.Classify(frames) == li {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	// Anywhere from chance to moderate is acceptable; near-perfect would
	// mean the corpus leaks language identity acoustically.
	if acc > 0.9 {
		t.Fatalf("acoustic baseline suspiciously strong (%.2f) on a phonotactic-only corpus", acc)
	}
	for _, frames := range trainFrames {
		s := rec.Score(frames[:100])
		for _, v := range s {
			if v != v { // NaN
				t.Fatal("non-finite score")
			}
		}
	}
}

func TestScoreEmptyUtterance(t *testing.T) {
	langs := synthlang.Generate(synthlang.DefaultConfig(), 42)[:2]
	var trainFrames [][][]float64
	for li, lang := range langs {
		trainFrames = append(trainFrames, langFrames(t, lang, uint64(20+li), 2, 4))
	}
	cfg := DefaultConfig()
	cfg.UBMMix = 4
	rec, err := Train(cfg, trainFrames)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Score(nil)
	for _, v := range s {
		if v != 0 {
			t.Fatal("empty utterance should score zero")
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(DefaultConfig(), nil); err == nil {
		t.Fatal("accepted no languages")
	}
	if _, err := Train(DefaultConfig(), [][][]float64{{}, {}}); err == nil {
		t.Fatal("accepted no frames")
	}
}
