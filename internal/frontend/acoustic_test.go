package frontend

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/synthlang"
	"repro/internal/synthspeech"
)

// tinyAcousticConfig keeps the full acoustic path fast enough for go test.
func tinyAcousticConfig(kind Kind, seed uint64) AcousticTrainConfig {
	cfg := DefaultAcousticConfig("tiny", kind, 12, seed)
	cfg.TrainUtterances = 10
	cfg.UtteranceDurS = 3
	cfg.GaussiansPerState = 2
	cfg.TrainEpochs = 4
	if kind != GMMHMM {
		cfg.HiddenLayers = []int{24}
	}
	return cfg
}

func TestTrainAcousticGMMHMM(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic path is slow")
	}
	langs := testLangs()[:3]
	fe, err := TrainAcoustic(tinyAcousticConfig(GMMHMM, 21), langs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	spk := synthlang.SpeakerProfile{Rate: 1, SubstitutionProb: 0, PitchHz: 140}
	u := langs[0].Sample(r, 3, spk, synthlang.ChannelCTSClean)
	l := fe.DecodeAudio(fe.synth.Render(r, u))
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Phone accuracy must beat chance (1/12) by a solid margin.
	acc := fe.PhoneAccuracy(rng.New(2), u)
	if acc < 0.2 {
		t.Fatalf("GMM-HMM acoustic path accuracy %v barely above chance", acc)
	}
	// Supervector flows through the same downstream code as the simulated
	// path.
	v := fe.Space.Supervector(l)
	if v.NNZ() == 0 {
		t.Fatal("acoustic supervector empty")
	}
}

func TestTrainAcousticHybridMLP(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic path is slow")
	}
	langs := testLangs()[:2]
	fe, err := TrainAcoustic(tinyAcousticConfig(ANNHMM, 22), langs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	spk := synthlang.SpeakerProfile{Rate: 1, SubstitutionProb: 0, PitchHz: 160}
	u := langs[0].Sample(r, 3, spk, synthlang.ChannelCTSClean)
	acc := fe.PhoneAccuracy(rng.New(4), u)
	if acc < 0.15 {
		t.Fatalf("hybrid acoustic path accuracy %v barely above chance", acc)
	}
}

func TestTrainAcousticErrors(t *testing.T) {
	if _, err := TrainAcoustic(tinyAcousticConfig(GMMHMM, 1), nil); err == nil {
		t.Fatal("TrainAcoustic accepted empty language list")
	}
}

func TestPhoneLMImprovesDecoding(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic path is slow")
	}
	langs := testLangs()[:3]
	mkCfg := func(useLM bool) AcousticTrainConfig {
		cfg := tinyAcousticConfig(GMMHMM, 33)
		cfg.UsePhoneLM = useLM
		cfg.LMWeight = 1.0
		return cfg
	}
	withLM, err := TrainAcoustic(mkCfg(true), langs)
	if err != nil {
		t.Fatal(err)
	}
	withoutLM, err := TrainAcoustic(mkCfg(false), langs)
	if err != nil {
		t.Fatal(err)
	}
	var accLM, accNoLM float64
	const trials = 4
	for i := 0; i < trials; i++ {
		r := rng.New(uint64(100 + i))
		spk := synthlang.SpeakerProfile{Rate: 1, SubstitutionProb: 0, PitchHz: 150}
		u := langs[i%len(langs)].Sample(r, 4, spk, synthlang.ChannelCTSClean)
		accLM += withLM.PhoneAccuracy(rng.New(uint64(200+i)), u) / trials
		accNoLM += withoutLM.PhoneAccuracy(rng.New(uint64(200+i)), u) / trials
	}
	t.Logf("phone accuracy with LM %.3f, without %.3f", accLM, accNoLM)
	// A matched-domain phone LM must not hurt decoding materially.
	if accLM < accNoLM-0.05 {
		t.Fatalf("phone LM degraded accuracy: %.3f vs %.3f", accLM, accNoLM)
	}
}

func TestRealignmentOptionRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic path is slow")
	}
	langs := testLangs()[:2]
	cfg := tinyAcousticConfig(GMMHMM, 44)
	cfg.RealignIters = 2
	fe, err := TrainAcoustic(cfg, langs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	spk := synthlang.SpeakerProfile{Rate: 1, SubstitutionProb: 0, PitchHz: 140}
	u := langs[0].Sample(r, 3, spk, synthlang.ChannelCTSClean)
	if acc := fe.PhoneAccuracy(rng.New(10), u); acc < 0.2 {
		t.Fatalf("realigned model accuracy %v", acc)
	}
}

// No binary links this; the package's tests use it as a referee or
// fixture.

// PhoneAccuracy measures frame-weighted phone accuracy of decoding against
// the reference segmentation, a diagnostic used by tests and EXPERIMENTS.md.
func (a *AcousticFrontEnd) PhoneAccuracy(r *rng.RNG, u *synthlang.Utterance) float64 {
	wav := a.synth.Render(r, u)
	frames := a.extract(wav)
	labels := synthspeech.FrameLabels(u, 10, 25)
	n := len(frames)
	if len(labels) < n {
		n = len(labels)
	}
	if n == 0 {
		return 0
	}
	segs := a.model.Decode(frames[:n])
	correct := 0
	for _, seg := range segs {
		for t := seg.Start; t < seg.End && t < n; t++ {
			if a.Set.Map(labels[t]) == seg.Phone {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}
