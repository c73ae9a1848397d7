// Benchmark harness: one benchmark per paper table and figure, the Table 5
// pipeline-stage timings, micro-benchmarks of the hot kernels, and the
// design-choice ablations called out in DESIGN.md. Quality metrics (EER,
// selection error) are attached to benchmark output via b.ReportMetric so
// `go test -bench=. -benchmem` regenerates both timing and accuracy
// evidence in one run.
package repro

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dba"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/feats"
	"repro/internal/frontend"
	"repro/internal/fusion"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/ngram"
	"repro/internal/prlm"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/synthlang"
	"repro/internal/synthspeech"
	"repro/internal/vsm"
)

var (
	pipeOnce sync.Once
	pipe     *experiments.Pipeline
)

// benchPipeline builds the shared tiny-scale pipeline once; every
// table-level benchmark reuses it, mirroring how the tables share the
// decode work in the paper's cost analysis.
func benchPipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	pipeOnce.Do(func() {
		pipe = experiments.BuildPipeline(experiments.ScaleTiny, 42)
	})
	return pipe
}

func meanEER(p *experiments.Pipeline, scores [][][]float64) float64 {
	var sum float64
	var n int
	for q := range scores {
		for _, dur := range corpus.Durations {
			eer, _ := experiments.Eval(scores[q], p.TestLabels, p.TestIdx[dur])
			sum += eer
			n++
		}
	}
	return sum / float64(n)
}

// BenchmarkTable1TrDBA regenerates Table 1: vote counting and T_DBA
// selection across all thresholds.
func BenchmarkTable1TrDBA(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var t1 *experiments.Table1
	for i := 0; i < b.N; i++ {
		t1 = experiments.RunTable1(p)
	}
	b.ReportMetric(float64(t1.Rows[3].Size), "|T_DBA|@V=3")
	b.ReportMetric(t1.Rows[3].ErrorRatePct, "labelErr%@V=3")
}

// BenchmarkTable2DBAM1 regenerates one Table 2 column: a full DBA-M1 pass
// at V = 3 (retraining all six subsystems and rescoring the test set).
func BenchmarkTable2DBAM1(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var o *dba.Outcome
	for i := 0; i < b.N; i++ {
		o = dba.Run(p.Data, p.TrainLabels, p.Baseline, p.VoteScores, dba.Config{
			Threshold: 3, Method: dba.M1, NumLangs: experiments.NumLangs, SVMOptions: p.SVMOptions,
		})
	}
	b.ReportMetric(meanEER(p, o.Scores), "meanEER%")
}

// BenchmarkTable3DBAM2 regenerates one Table 3 column: DBA-M2 at V = 3.
func BenchmarkTable3DBAM2(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var o *dba.Outcome
	for i := 0; i < b.N; i++ {
		o = dba.Run(p.Data, p.TrainLabels, p.Baseline, p.VoteScores, dba.Config{
			Threshold: 3, Method: dba.M2, NumLangs: experiments.NumLangs, SVMOptions: p.SVMOptions,
		})
	}
	b.ReportMetric(meanEER(p, o.Scores), "meanEER%")
	b.ReportMetric(meanEER(p, p.BaselineScores), "baselineEER%")
}

// BenchmarkTable4Fusion regenerates Table 4: per-front-end M1+M2 fusions
// plus the 6- and 12-subsystem LDA-MMI fusions.
func BenchmarkTable4Fusion(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var t4 *experiments.Table4
	for i := 0; i < b.N; i++ {
		t4 = experiments.RunTable4(p, 3)
	}
	b.ReportMetric(t4.BaselineFusion[3].EER, "baseFusion3sEER%")
	b.ReportMetric(t4.DBAFusion[3].EER, "dbaFusion3sEER%")
}

// BenchmarkFig3DET regenerates Fig. 3's DET curves from the fused systems.
func BenchmarkFig3DET(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var f *experiments.Fig3
	for i := 0; i < b.N; i++ {
		f = experiments.RunFig3(p, 3)
	}
	b.ReportMetric(float64(len(f.Curves[3].Baseline)), "points3s")
}

// --- Table 5 stage benchmarks (real acoustic path) ---

var (
	acousticOnce sync.Once
	acousticFE   *frontend.AcousticFrontEnd
	acousticWav  []float64
	acousticLat  *lattice.Lattice
)

func acousticSetup(b *testing.B) {
	b.Helper()
	acousticOnce.Do(func() {
		langs := synthlang.Generate(synthlang.DefaultConfig(), 42)
		cfg := frontend.DefaultAcousticConfig("HU", frontend.ANNHMM, 59, 42)
		cfg.TrainUtterances = 12
		cfg.UtteranceDurS = 4
		cfg.HiddenLayers = []int{48}
		cfg.TrainEpochs = 4
		fe, err := frontend.TrainAcoustic(cfg, langs[:4])
		if err != nil {
			panic(err)
		}
		acousticFE = fe
		r := rng.New(7)
		spk := synthlang.NewSpeaker(r, 0)
		u := langs[0].Sample(r, 30, spk, synthlang.ChannelCTSClean)
		acousticWav = synthspeech.New().Render(r, u)
		acousticLat = fe.DecodeAudio(acousticWav)
	})
}

// BenchmarkDecoding measures the Table 5 decoding stage: 30 s of audio
// through feature extraction, hybrid Viterbi, and confusion generation.
// ns/op ÷ 30e9 is the real-time factor.
func BenchmarkDecoding(b *testing.B) {
	acousticSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acousticLat = acousticFE.DecodeAudio(acousticWav)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/30e9, "RTF")
}

// BenchmarkSupervectorGen measures the Table 5 supervector-generation
// stage: expected bigram counting over a 30 s lattice.
func BenchmarkSupervectorGen(b *testing.B) {
	acousticSetup(b)
	space := ngram.NewSpace(59, frontend.NgramOrder)
	b.ResetTimer()
	var v *sparse.Vector
	for i := 0; i < b.N; i++ {
		v = space.Supervector(acousticLat)
	}
	b.ReportMetric(float64(v.NNZ()), "nnz")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/30e9, "RTF")
}

// BenchmarkSupervectorProduct measures the Table 5 scoring stage: one
// utterance against 23 one-vs-rest language models. DBA doubles this cost
// (two scoring passes); decoding and generation are shared.
func BenchmarkSupervectorProduct(b *testing.B) {
	p := benchPipeline(b)
	v := p.Data[0].Test[0]
	ovr := p.Baseline[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ovr.Scores(v)
	}
}

// --- Ablation benchmarks (design choices from DESIGN.md) ---

// BenchmarkAblationVoteCriterion compares the paper's strict Eq. 13 vote
// against a naive arg-max vote; the metrics show the strict criterion buys
// a much cleaner T_DBA.
func BenchmarkAblationVoteCriterion(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var a *experiments.VoteAblation
	for i := 0; i < b.N; i++ {
		a = experiments.RunVoteAblation(p, 3)
	}
	b.ReportMetric(a.StrictErrorPct, "strictErr%")
	b.ReportMetric(a.NaiveErrorPct, "naiveErr%")
}

// BenchmarkAblationTFLLR compares baseline training with and without the
// TFLLR kernel scaling of Eq. 5 on one front-end.
func BenchmarkAblationTFLLR(b *testing.B) {
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"tfllr", false}, {"raw", true}} {
		b.Run(variant.name, func(b *testing.B) {
			c := corpus.Build(experiments.CorpusConfig(experiments.ScaleTiny, 42))
			fe := frontend.StandardSix(42)[0]
			var eer float64
			for i := 0; i < b.N; i++ {
				f, err := vsm.ExtractChecked(fe, c, vsm.ExtractOptions{Seed: 42, DisableTFLLR: variant.disable})
				if err != nil {
					b.Fatal(err)
				}
				trainX := f.Vectors(c.Train)
				ovr := svm.TrainOVR(trainX, c.Train.Labels(), experiments.NumLangs,
					f.Dim(), vsm.DefaultSVMOptions())
				scores := ovr.ScoreAll(f.Vectors(c.Test[30]))
				idx := make([]int, len(scores))
				for j := range idx {
					idx[j] = j
				}
				eer, _ = experiments.Eval(scores, c.Test[30].Labels(), idx)
			}
			b.ReportMetric(eer, "EER30s%")
		})
	}
}

// BenchmarkAblationMMIFusion compares LDA-only fusion (MMIIters = 0)
// against full LDA-MMI on the six baseline subsystems at 3 s.
func BenchmarkAblationMMIFusion(b *testing.B) {
	p := benchPipeline(b)
	for _, variant := range []struct {
		name string
		cfg  fusion.Config
	}{
		{"lda-only", fusion.Config{MMIIters: 0, LearnRate: 0.05, Ridge: 1e-3}},
		{"lda-mmi", fusion.DefaultConfig()},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var eer float64
			rows := make([][]float64, len(p.BaselineScores))
			for i := 0; i < b.N; i++ {
				x, y := fusion.Trials(p.BaselineDev, nil, p.DevLabels, p.DevIdx[3])
				bk, err := fusion.Train(x, y, 2, variant.cfg)
				if err != nil {
					b.Fatal(err)
				}
				fused := make([][]float64, len(p.TestLabels))
				for _, j := range p.TestIdx[3] {
					for q := range rows {
						rows[q] = p.BaselineScores[q][j]
					}
					fused[j] = fusion.Decide(bk, rows)
				}
				eer, _ = experiments.Eval(fused, p.TestLabels, p.TestIdx[3])
			}
			b.ReportMetric(eer, "fusedEER3s%")
		})
	}
}

// --- Kernel micro-benchmarks ---

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	r := rng.New(1)
	for i := range x {
		x[i] = complex(r.Norm(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.FFT(x)
	}
}

func BenchmarkMFCC30s(b *testing.B) {
	r := rng.New(2)
	sig := make([]float64, 30*8000)
	for i := range sig {
		sig[i] = 0.3 * math.Sin(float64(i)*0.3) * r.Float64()
	}
	e := feats.NewExtractor(feats.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MFCC(sig)
	}
}

// BenchmarkMinCavg times one minimum-Cavg search at Table 4 size: the
// 184 test utterances of one duration at small scale, each scored
// against the K = 23 language models (4,232 pair trials).
func BenchmarkMinCavg(b *testing.B) {
	const utts, k = 184, 23
	r := rng.New(4)
	trials := make([]metrics.PairTrial, 0, utts*k)
	for u := 0; u < utts; u++ {
		truth := u % k
		for m := 0; m < k; m++ {
			s := r.Norm()
			if m == truth {
				s += 2
			}
			trials = append(trials, metrics.PairTrial{Model: m, True: truth, Score: s})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		minCavgSink, _ = metrics.MinCavg(trials, k)
	}
}

// minCavgSink keeps BenchmarkMinCavg's call from being optimized away.
var minCavgSink float64

func BenchmarkLatticeExpectedBigrams(b *testing.B) {
	// A 300-slot, 4-alternative sausage ≈ one 30 s utterance.
	r := rng.New(3)
	slots := make([]lattice.SausageSlot, 300)
	for i := range slots {
		var slot lattice.SausageSlot
		for k := 0; k < 4; k++ {
			slot = append(slot, struct {
				Phone int
				Prob  float64
			}{Phone: r.Intn(59), Prob: 0.25})
		}
		slots[i] = slot
	}
	l := lattice.FromSausage(slots)
	space := ngram.NewSpace(59, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.Supervector(l)
	}
}

// --- Extension benchmarks ---

// BenchmarkExtensionIterativeDBA measures the multi-round DBA extension
// (3 boosting rounds, DBA-M2, V=3) and reports its final mean EER next to
// the single-round result.
func BenchmarkExtensionIterativeDBA(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var finalEER, round1EER float64
	for i := 0; i < b.N; i++ {
		out := p.IterativeDBA(3, dba.M2, 3)
		round1EER = meanEER(p, out.Rounds[0].Scores)
		finalEER = meanEER(p, out.Rounds[len(out.Rounds)-1].Scores)
	}
	b.ReportMetric(round1EER, "round1EER%")
	b.ReportMetric(finalEER, "finalEER%")
}

// BenchmarkAblationTrigram compares bigram against trigram supervectors on
// the CZ front-end (the paper's systems go up to trigram; bigram is this
// repository's default — DESIGN.md).
func BenchmarkAblationTrigram(b *testing.B) {
	for _, variant := range []struct {
		name  string
		order int
	}{{"bigram", 2}, {"trigram", 3}} {
		b.Run(variant.name, func(b *testing.B) {
			c := corpus.Build(experiments.CorpusConfig(experiments.ScaleTiny, 42))
			fe := frontend.NewWithOrder("CZ", frontend.ANNHMM, 43, 42, variant.order)
			var eer float64
			for i := 0; i < b.N; i++ {
				f, err := vsm.ExtractChecked(fe, c, vsm.ExtractOptions{Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				ovr := svm.TrainOVR(f.Vectors(c.Train), c.Train.Labels(),
					experiments.NumLangs, f.Dim(), vsm.DefaultSVMOptions())
				scores := ovr.ScoreAll(f.Vectors(c.Test[30]))
				idx := make([]int, len(scores))
				for j := range idx {
					idx[j] = j
				}
				eer, _ = experiments.Eval(scores, c.Test[30].Labels(), idx)
			}
			b.ReportMetric(eer, "EER30s%")
			b.ReportMetric(float64(fe.Space.Dim()), "dim")
		})
	}
}

// BenchmarkAblationCalibrationFA sweeps the vote-calibration operating
// point, the knob that trades T_DBA size against label purity.
func BenchmarkAblationCalibrationFA(b *testing.B) {
	p := benchPipeline(b)
	for _, fa := range []float64{0.01, 0.03, 0.10} {
		b.Run(fmt.Sprintf("fa=%g", fa), func(b *testing.B) {
			var st experiments.SelectionStats
			for i := 0; i < b.N; i++ {
				st = p.SelectionStatsAtFA(fa, 3)
			}
			b.ReportMetric(float64(st.Size), "|T_DBA|")
			b.ReportMetric(st.ErrorRatePct, "labelErr%")
		})
	}
}

// BenchmarkBaselinePRLMvsVSM compares the classical PRLM approach
// (per-language phone LMs, generative scoring — the paper's reference [2])
// against the SVM-based vector space model on identical decoded phone
// streams, reproducing the finding that motivated the field's move to
// PPRVSM.
func BenchmarkBaselinePRLMvsVSM(b *testing.B) {
	c := corpus.Build(experiments.CorpusConfig(experiments.ScaleTiny, 42))
	fe := frontend.StandardSix(42)[0]

	b.Run("prlm", func(b *testing.B) {
		var eer float64
		for i := 0; i < b.N; i++ {
			root := rng.New(42).SplitString("extract:" + fe.Name)
			decode1best := func(it *corpus.Item) []int {
				best, _ := fe.Decode(root.Split(uint64(it.ID)), it.U).BestPath()
				return best
			}
			train := make([][][]int, experiments.NumLangs)
			for _, it := range c.Train.Items {
				train[it.Label] = append(train[it.Label], decode1best(it))
			}
			sys, err := prlm.Train(fe.Set.Size, train, prlm.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			var trials []metrics.Trial
			for _, it := range c.Test[30].Items {
				for k, s := range sys.Score(decode1best(it)) {
					trials = append(trials, metrics.Trial{Score: s, Target: k == it.Label})
				}
			}
			eer = metrics.EER(trials) * 100
		}
		b.ReportMetric(eer, "EER30s%")
	})

	b.Run("vsm", func(b *testing.B) {
		var eer float64
		for i := 0; i < b.N; i++ {
			f, err := vsm.ExtractChecked(fe, c, vsm.ExtractOptions{Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			ovr := svm.TrainOVR(f.Vectors(c.Train), c.Train.Labels(),
				experiments.NumLangs, f.Dim(), vsm.DefaultSVMOptions())
			scores := ovr.ScoreAll(f.Vectors(c.Test[30]))
			idx := make([]int, len(scores))
			for j := range idx {
				idx[j] = j
			}
			eer, _ = experiments.Eval(scores, c.Test[30].Labels(), idx)
		}
		b.ReportMetric(eer, "EER30s%")
	})
}
