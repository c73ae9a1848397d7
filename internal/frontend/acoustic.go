package frontend

import (
	"fmt"
	"math"

	"repro/internal/feats"
	"repro/internal/hmm"
	"repro/internal/lattice"
	"repro/internal/lm"
	"repro/internal/ngram"
	"repro/internal/nnet"
	"repro/internal/phones"
	"repro/internal/rng"
	"repro/internal/synthlang"
	"repro/internal/synthspeech"
)

// FeatureKind selects the acoustic feature pipeline, matching the paper's
// setups (PLP for the GMM-HMM and DNN-HMM front-ends, MFCC offered for
// the acoustic-diversification variant).
type FeatureKind int

// Feature pipelines.
const (
	PLPFeatures FeatureKind = iota
	MFCCFeatures
)

// AcousticFrontEnd is a phone recognizer that runs the full acoustic path:
// waveform → features → HMM decoding → confusion lattice. It implements
// the same Decode contract as the simulated FrontEnd.
type AcousticFrontEnd struct {
	Name     string
	Kind     Kind
	Set      *phones.Set
	Space    *ngram.Space
	Features FeatureKind

	extractor *feats.Extractor
	model     *hmm.Model
	synth     *synthspeech.Synthesizer
	// TopK alternatives per decoded segment in the output lattice.
	TopK int
	// AcousticScale flattens segment posteriors (standard lattice
	// posterior scaling; ~0.1 gives useful confusion networks).
	AcousticScale float64
}

// AcousticTrainConfig controls acoustic model training.
type AcousticTrainConfig struct {
	Name          string
	Kind          Kind
	InventorySize int
	Features      FeatureKind
	Seed          uint64
	// TrainUtterances is the number of synthetic training utterances;
	// each contributes a few hundred labeled frames.
	TrainUtterances int
	// UtteranceDurS is the duration of each training utterance.
	UtteranceDurS float64
	// GaussiansPerState for GMM-HMM (paper: 32; tests use fewer).
	GaussiansPerState int
	// HiddenLayers for hybrid models: e.g. {64} for the shallow ANN,
	// {128, 128, 128} for the DNN.
	HiddenLayers []int
	// TrainEpochs for the MLP fine-tuning.
	TrainEpochs int
	// RealignIters applies Viterbi-realignment training after the flat
	// start (GMM-HMM only; the paper's ML-then-realign recipe). 0 keeps
	// the flat-start segmentation.
	RealignIters int
	// UsePhoneLM trains a Kneser-Ney phone bigram on the training
	// transcriptions and applies it during decoding (the paper's decoder
	// consumes an HTK phone-level language model; SRILM estimates it).
	UsePhoneLM bool
	// LMWeight is the grammar scale factor applied to the phone LM.
	LMWeight float64
}

// DefaultAcousticConfig returns a small but faithful configuration.
func DefaultAcousticConfig(name string, kind Kind, inventorySize int, seed uint64) AcousticTrainConfig {
	cfg := AcousticTrainConfig{
		Name:              name,
		Kind:              kind,
		InventorySize:     inventorySize,
		Seed:              seed,
		TrainUtterances:   24,
		UtteranceDurS:     4,
		GaussiansPerState: 4,
		TrainEpochs:       8,
		UsePhoneLM:        true,
		LMWeight:          1.0,
	}
	switch kind {
	case DNNHMM:
		cfg.Features = PLPFeatures
		cfg.HiddenLayers = []int{64, 64, 64}
	case ANNHMM:
		cfg.Features = MFCCFeatures
		cfg.HiddenLayers = []int{64}
	case GMMHMM:
		cfg.Features = PLPFeatures
	}
	return cfg
}

// TrainAcoustic builds and trains an acoustic front-end on synthetic
// speech drawn from the given languages. The training audio is rendered in
// the CTS-clean condition, mirroring the paper's recognizers (trained on
// Switchboard/telephone corpora) meeting mismatched test audio.
func TrainAcoustic(cfg AcousticTrainConfig, langs []*synthlang.Language) (*AcousticFrontEnd, error) {
	if len(langs) == 0 {
		return nil, fmt.Errorf("frontend: no languages to train on")
	}
	root := rng.New(cfg.Seed)
	set := phones.NewSet(cfg.Name, cfg.InventorySize, cfg.Seed)
	ext := feats.NewExtractor(feats.DefaultConfig())
	synth := synthspeech.New()

	a := &AcousticFrontEnd{
		Name:          cfg.Name,
		Kind:          cfg.Kind,
		Set:           set,
		Space:         ngram.NewSpace(set.Size, NgramOrder),
		Features:      cfg.Features,
		extractor:     ext,
		synth:         synth,
		TopK:          4,
		AcousticScale: 0.15,
	}

	// Generate labeled training data.
	var utterFrames [][][]float64
	var utterSegs [][]hmm.Segment
	var allFrames [][]float64
	var allLabels []int
	for i := 0; i < cfg.TrainUtterances; i++ {
		r := root.Split(uint64(i) + 1)
		lang := langs[i%len(langs)]
		spk := synthlang.NewSpeaker(r, i)
		u := lang.Sample(r, cfg.UtteranceDurS, spk, synthlang.ChannelCTSClean)
		wav := synth.Render(r, u)
		frames := a.extract(wav)
		labels := synthspeech.FrameLabels(u, 10, 25)
		n := len(frames)
		if len(labels) < n {
			n = len(labels)
		}
		if n == 0 {
			continue
		}
		frames = frames[:n]
		// Convert frame labels (universal) to front-end phone segments.
		segs := labelsToSegments(labels[:n], set)
		utterFrames = append(utterFrames, frames)
		utterSegs = append(utterSegs, segs)
		for t := 0; t < n; t++ {
			allFrames = append(allFrames, frames[t])
			allLabels = append(allLabels, set.Map(labels[t]))
		}
	}
	if len(allFrames) == 0 {
		return nil, fmt.Errorf("frontend: no training frames produced")
	}

	var emit hmm.EmissionScorer
	switch cfg.Kind {
	case GMMHMM:
		if cfg.RealignIters > 0 {
			utterPhones := make([][]int, len(utterSegs))
			for i, segs := range utterSegs {
				seq := make([]int, len(segs))
				for j, sg := range segs {
					seq[j] = sg.Phone
				}
				utterPhones[i] = seq
			}
			refined, _ := hmm.Realign(root.SplitString("realign"), set.Size,
				utterFrames, utterPhones, utterSegs, cfg.GaussiansPerState, 6, cfg.RealignIters)
			emit = refined
		} else {
			emit = hmm.TrainGMMEmissions(root.SplitString("gmm"), set.Size,
				utterFrames, utterSegs, cfg.GaussiansPerState, 6)
		}
	default:
		// Hybrid: MLP frame classifier over front-end phones.
		dim := len(allFrames[0])
		sizes := append([]int{dim}, cfg.HiddenLayers...)
		sizes = append(sizes, set.Size)
		mlp := nnet.New(root.SplitString("mlp"), sizes...)
		tc := nnet.DefaultTrainConfig()
		tc.Epochs = cfg.TrainEpochs
		if cfg.Kind == DNNHMM {
			// The paper pre-trains its DNN before fine-tuning.
			mlp.Pretrain(root.SplitString("pretrain"), subsample(allFrames, 2000), 2, 0.01, 0.1)
		}
		mlp.Train(root.SplitString("sgd"), allFrames, allLabels, nil, nil, tc)
		// Log priors from label frequencies.
		priors := make([]float64, set.Size)
		for _, l := range allLabels {
			priors[l]++
		}
		logPriors := make([]float64, set.Size)
		for p := range logPriors {
			logPriors[p] = math.Log((priors[p] + 1) / (float64(len(allLabels)) + float64(set.Size)))
		}
		emit = &hmm.PosteriorEmissions{Classify: mlp.LogPredict, LogPriors: logPriors}
	}
	a.model = hmm.NewModel(set.Size, emit, 7)
	if cfg.UsePhoneLM {
		// Phone-sequence transcriptions in front-end phones.
		var seqs [][]int
		for _, segs := range utterSegs {
			seq := make([]int, len(segs))
			for i, sg := range segs {
				seq[i] = sg.Phone
			}
			seqs = append(seqs, seq)
		}
		phoneLM := lm.TrainKneserNey(set.Size, seqs, 0.75)
		w := cfg.LMWeight
		if w <= 0 {
			w = 1
		}
		trans := make([][]float64, set.Size)
		for aPh := 0; aPh < set.Size; aPh++ {
			row := make([]float64, set.Size)
			for bPh := 0; bPh < set.Size; bPh++ {
				row[bPh] = w * phoneLM.LogProb(aPh, bPh)
			}
			trans[aPh] = row
		}
		a.model.LogPhoneTrans = trans
	}
	return a, nil
}

// extract runs the configured feature pipeline.
func (a *AcousticFrontEnd) extract(wav []float64) [][]float64 {
	switch a.Features {
	case MFCCFeatures:
		return a.extractor.MFCCWithDeltasCMVN(wav)
	default:
		return a.extractor.PLPWithDeltasCMVN(wav)
	}
}

// labelsToSegments compresses per-frame universal labels into front-end
// phone segments.
func labelsToSegments(labels []int, set *phones.Set) []hmm.Segment {
	var segs []hmm.Segment
	start := 0
	for t := 1; t <= len(labels); t++ {
		if t == len(labels) || set.Map(labels[t]) != set.Map(labels[start]) {
			segs = append(segs, hmm.Segment{
				Phone: set.Map(labels[start]),
				Start: start,
				End:   t,
			})
			start = t
		}
	}
	return segs
}

func subsample(frames [][]float64, maxN int) [][]float64 {
	if len(frames) <= maxN {
		return frames
	}
	stride := len(frames) / maxN
	out := make([][]float64, 0, maxN)
	for i := 0; i < len(frames) && len(out) < maxN; i += stride {
		out = append(out, frames[i])
	}
	return out
}

// DecodeAudio decodes raw samples into a confusion-network lattice.
func (a *AcousticFrontEnd) DecodeAudio(wav []float64) *lattice.Lattice {
	frames := a.extract(wav)
	return a.DecodeFrames(frames)
}

// DecodeFrames decodes pre-extracted feature frames.
func (a *AcousticFrontEnd) DecodeFrames(frames [][]float64) *lattice.Lattice {
	segs := a.model.Decode(frames)
	obsDecodedUtts.Inc()
	if len(segs) == 0 {
		// Guarantee a non-empty lattice for degenerate inputs.
		return lattice.FromString([]int{0})
	}
	alts := a.model.SegmentAlternatives(frames, segs, a.TopK, a.AcousticScale)
	slots := make([]lattice.SausageSlot, len(segs))
	for i, segAlts := range alts {
		slot := make(lattice.SausageSlot, 0, len(segAlts))
		for _, alt := range segAlts {
			if alt.Posterior <= 0 {
				continue
			}
			slot = append(slot, struct {
				Phone int
				Prob  float64
			}{Phone: alt.Phone, Prob: alt.Posterior})
		}
		slots[i] = slot
	}
	l := lattice.FromSausage(slots)
	obsLatticeArcs.Add(int64(l.NumEdges()))
	return l
}
