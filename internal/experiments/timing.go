package experiments

import (
	"fmt"
	"strings"

	"repro/internal/frontend"
	"repro/internal/lattice"
	"repro/internal/ngram"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/synthlang"
	"repro/internal/synthspeech"
)

// Table5 reproduces paper Table 5: real-time factors of the pipeline
// stages for the HU front-end on 30 s test utterances, PPRVSM vs DBA.
// Decoding runs the genuine acoustic path (waveform → features → hybrid
// MLP-HMM Viterbi → confusion lattice), so the decode RTF is a real
// measurement, not a simulation artifact.
//
// Every stage is timed by an obs span ("table5" → "decode",
// "supervector-gen", "svm-score", "dba"), and the table's RTFs are derived
// from those span durations — the serialized trace and the printed table
// agree by construction. Each stage span carries "rtf" and
// "audio_seconds" attributes so the trace alone suffices to rebuild the
// table.
type Table5 struct {
	Rows []Table5Row
	// Note records the one structural difference from the paper's
	// implementation (supervector caching).
	Note string
}

// Table5Row is one system's real-time factors (processing seconds per
// second of audio).
type Table5Row struct {
	System                string
	Decode, SVGen, SVProd float64
}

// Table5Config sizes the timing run.
type Table5Config struct {
	Seed          uint64
	NumUtterances int
	UtteranceDurS float64
	InventorySize int
}

// DefaultTable5Config mirrors the paper's setting (HU front-end, 30 s
// test) at a size that runs in seconds.
func DefaultTable5Config() Table5Config {
	return Table5Config{Seed: 42, NumUtterances: 3, UtteranceDurS: 30, InventorySize: 59}
}

// RunTable5 measures the stage timings.
func RunTable5(cfg Table5Config) (*Table5, error) {
	root := obs.StartSpan("table5")
	defer root.End()

	setupSp := root.StartChild("setup")
	langs := synthlang.Generate(synthlang.DefaultConfig(), cfg.Seed)
	acfg := frontend.DefaultAcousticConfig("HU", frontend.ANNHMM, cfg.InventorySize, cfg.Seed)
	acfg.TrainUtterances = 12
	acfg.UtteranceDurS = 4
	acfg.HiddenLayers = []int{48}
	acfg.TrainEpochs = 4
	fe, err := frontend.TrainAcoustic(acfg, langs[:4])
	if err != nil {
		setupSp.End()
		return nil, err
	}

	root2 := rng.New(cfg.Seed)
	synth := synthspeech.New()
	var audioSeconds float64
	var wavs [][]float64
	for i := 0; i < cfg.NumUtterances; i++ {
		r := root2.Split(uint64(i) + 77)
		spk := synthlang.NewSpeaker(r, i)
		u := langs[i%len(langs)].Sample(r, cfg.UtteranceDurS, spk, synthlang.ChannelCTSClean)
		wav := synth.Render(r, u)
		wavs = append(wavs, wav)
		audioSeconds += float64(len(wav)) / synthspeech.SampleRate
	}
	setupSp.End()
	root.SetAttr("audio_seconds", audioSeconds)

	rtfAttrs := func(sp *obs.Span, rtf float64) {
		sp.SetAttr("audio_seconds", audioSeconds)
		sp.SetAttr("rtf", rtf)
	}

	// Decode stage. The span is ended first and the RTF derived from the
	// recorded duration, so the serialized trace and the printed table are
	// the same measurement.
	var lats []*lattice.Lattice
	decSp := root.StartChild("decode")
	for _, wav := range wavs {
		lats = append(lats, fe.DecodeAudio(wav))
	}
	decodeRTF := decSp.End().Seconds() / audioSeconds
	decSp.SetAttr("utterances", float64(len(wavs)))
	rtfAttrs(decSp, decodeRTF)

	// Supervector generation stage.
	space := ngram.NewSpace(cfg.InventorySize, frontend.NgramOrder)
	var vecs []*sparse.Vector
	svSp := root.StartChild("supervector-gen")
	for _, l := range lats {
		vecs = append(vecs, space.Supervector(l))
	}
	svGenRTF := svSp.End().Seconds() / audioSeconds
	svSp.SetAttr("dim", float64(space.Dim()))
	rtfAttrs(svSp, svGenRTF)

	// Supervector product stage: one-vs-rest scoring against 23 language
	// models (trained quickly on jittered copies of the test vectors; the
	// product cost depends only on model dimensionality and vector
	// sparsity, not on training quality).
	trainSp := root.StartChild("svm-train")
	trainVecs := make([]*sparse.Vector, 0, 46)
	labels := make([]int, 0, 46)
	jr := rng.New(cfg.Seed + 99)
	for i := 0; i < 46; i++ {
		v := vecs[i%len(vecs)].Clone()
		v.Map(func(_ int32, val float64) float64 { return val * (1 + 0.1*jr.Norm()) })
		trainVecs = append(trainVecs, v)
		labels = append(labels, i%NumLangs)
	}
	opt := svm.DefaultOptions()
	opt.MaxIters = 5
	ovr := svm.TrainOVR(trainVecs, labels, NumLangs, space.Dim(), opt)
	trainSp.End()

	// Repeat the product enough times to measure reliably.
	const reps = 50
	scoreOnce := func() {
		for _, v := range vecs {
			ovr.Scores(v)
		}
	}
	prodSp := root.StartChild("svm-score")
	for rep := 0; rep < reps; rep++ {
		scoreOnce()
	}
	svProdRTF := prodSp.End().Seconds() / (audioSeconds * reps)
	prodSp.SetAttr("reps", reps)
	rtfAttrs(prodSp, svProdRTF)

	// DBA stage: one boosting round's added cost. Decoding and supervector
	// generation are shared with the baseline pass (the cached vectors are
	// reused), so the round reduces to a second scoring pass — measured
	// here for the trace; the table reports the paper's structural 2×
	// (Eq. 18) from the baseline measurement.
	dbaSp := root.StartChild("dba")
	roundSp := dbaSp.StartChild("dba.round-1")
	pass2Sp := roundSp.StartChild("svm-score")
	for rep := 0; rep < reps; rep++ {
		scoreOnce()
	}
	pass2RTF := pass2Sp.End().Seconds() / (audioSeconds * reps)
	pass2Sp.SetAttr("reps", reps)
	rtfAttrs(pass2Sp, pass2RTF)
	roundSp.End()
	rtfAttrs(roundSp, svProdRTF+pass2RTF)
	dbaSp.End()

	return &Table5{
		Rows: []Table5Row{
			{System: "PPRVSM", Decode: decodeRTF, SVGen: svGenRTF, SVProd: svProdRTF},
			// DBA decodes once (shared with the baseline pass), reuses the
			// cached supervectors, and scores the test set twice (baseline
			// pass + retrained pass) — Eq. 18.
			{System: "DBA", Decode: decodeRTF, SVGen: svGenRTF, SVProd: 2 * svProdRTF},
		},
		Note: "DBA reuses cached supervectors (gen ×1); the paper's implementation regenerated them (×~3). Both agree that decoding dominates and the DBA/PPRVSM total ratio ≈ 1 (Eq. 19).",
	}, nil
}

// String renders Table 5.
func (t *Table5) String() string {
	var b strings.Builder
	b.WriteString("Table 5: real-time factors, HU front-end, 30s test (seconds of compute per second of audio)\n")
	fmt.Fprintf(&b, "%-8s %10s %12s %12s\n", "System", "Decoding", "SV gen.", "SV prod.")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-8s %10.4f %12.3e %12.3e\n", r.System, r.Decode, r.SVGen, r.SVProd)
	}
	fmt.Fprintf(&b, "note: %s\n", t.Note)
	return b.String()
}
