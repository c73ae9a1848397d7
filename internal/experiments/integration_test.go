package experiments

import (
	"testing"

	"repro/internal/frontend"
	"repro/internal/metrics"
	"repro/internal/ngram"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/synthlang"
	"repro/internal/synthspeech"
	"repro/internal/vsm"
)

// TestAcousticPathMiniLRE is the deepest integration test: a miniature
// language-recognition evaluation where NOTHING is simulated — synthetic
// audio is rendered, two acoustic phone recognizers (GMM-HMM and hybrid
// ANN-HMM) are trained from scratch, utterances are decoded into lattices,
// expected-bigram supervectors are TFLLR-scaled, one-vs-rest SVMs are
// trained, and the pooled EER must beat chance by a wide margin. It pins
// the contract that the simulated-decoder sweeps and the real acoustic
// path share every stage downstream of the lattice.
func TestAcousticPathMiniLRE(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic path is slow")
	}
	const (
		numLangs = 3
		perLang  = 14
		testPer  = 6
		durS     = 8.0
	)
	langs := synthlang.Generate(synthlang.DefaultConfig(), 42)[:numLangs]
	synth := synthspeech.New()
	root := rng.New(99)

	// Two diverse acoustic front-ends, as in the paper's architecture.
	mkFE := func(kind frontend.Kind, inv int, seed uint64) *frontend.AcousticFrontEnd {
		cfg := frontend.DefaultAcousticConfig("fe", kind, inv, seed)
		cfg.TrainUtterances = 45
		cfg.UtteranceDurS = 6
		if kind != frontend.GMMHMM {
			cfg.HiddenLayers = []int{48}
			cfg.TrainEpochs = 10
		}
		fe, err := frontend.TrainAcoustic(cfg, langs)
		if err != nil {
			t.Fatal(err)
		}
		return fe
	}
	fes := []*frontend.AcousticFrontEnd{
		mkFE(frontend.GMMHMM, 20, 7),
		mkFE(frontend.ANNHMM, 20, 8),
	}

	type utt struct {
		wav   []float64
		label int
	}
	render := func(split string, li, i int) utt {
		r := root.SplitString(split).Split(uint64(li*1000 + i))
		spk := synthlang.NewSpeaker(r, li*1000+i)
		u := langs[li].Sample(r, durS, spk, synthlang.ChannelCTSClean)
		return utt{wav: synth.Render(r, u), label: li}
	}
	var train, test []utt
	for li := range langs {
		for i := 0; i < perLang; i++ {
			train = append(train, render("train", li, i))
		}
		for i := 0; i < testPer; i++ {
			test = append(test, render("test", li, i))
		}
	}

	// Per-front-end PPRVSM subsystems over real decoded audio.
	var pooled []metrics.Trial
	for _, fe := range fes {
		sv := func(wav []float64) *sparse.Vector {
			return fe.Space.Supervector(fe.DecodeAudio(wav))
		}
		var trainX []*sparse.Vector
		var trainY []int
		for _, u := range train {
			trainX = append(trainX, sv(u.wav))
			trainY = append(trainY, u.label)
		}
		tf := ngram.EstimateTFLLR(trainX, fe.Space.Dim(), 1e-5)
		for _, v := range trainX {
			tf.Apply(v)
		}
		ovr := svm.TrainOVR(trainX, trainY, numLangs, fe.Space.Dim(), vsm.DefaultSVMOptions())
		for _, u := range test {
			v := sv(u.wav)
			tf.Apply(v)
			for k, s := range ovr.Scores(v) {
				pooled = append(pooled, metrics.Trial{Score: s, Target: k == u.label})
			}
		}
	}
	eer := metrics.EER(pooled)
	t.Logf("acoustic-path mini-LRE pooled EER = %.1f%% (chance 50%%)", eer*100)
	// Chance EER is 50 %; require a wide margin.
	if eer > 0.35 {
		t.Fatalf("acoustic-path EER %.1f%% too close to chance", eer*100)
	}
}
