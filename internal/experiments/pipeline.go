// Package experiments is the harness that regenerates every table and
// figure of the paper's evaluation (Section 5) on the synthetic LRE09
// substitute corpus: Table 1 (T_DBA composition vs V), Tables 2–3 (DBA-M1
// and DBA-M2 EER/Cavg sweeps per front-end and duration), Table 4
// (baseline vs DBA with LDA-MMI fusion), Table 5 (real-time factors), and
// Fig. 3 (DET curves). See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/cascade"
	"repro/internal/checkpoint"
	"repro/internal/corpus"
	"repro/internal/dba"
	"repro/internal/frontend"
	"repro/internal/fusion"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/svm"
	"repro/internal/synthlang"
	"repro/internal/vsm"
)

// Scale selects corpus sizes; every scale runs the identical code path.
type Scale int

// Scales: Tiny is for unit tests (seconds), Small for CI-style runs,
// Medium for the command-line driver, Full for paper-proportioned runs.
const (
	ScaleTiny Scale = iota
	ScaleSmall
	ScaleMedium
	ScaleFull
)

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale converts a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q", s)
}

// CorpusConfig returns the corpus sizing for a scale.
func CorpusConfig(s Scale, seed uint64) corpus.Config {
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	switch s {
	case ScaleTiny:
		cfg.TrainPerLang = 8
		cfg.DevPerLang = 4
		cfg.TestPerLang = 4
	case ScaleSmall:
		cfg.TrainPerLang = 20
		cfg.DevPerLang = 8
		cfg.TestPerLang = 8
	case ScaleMedium:
		cfg.TrainPerLang = 40
		cfg.DevPerLang = 12
		cfg.TestPerLang = 20
	case ScaleFull:
		cfg.TrainPerLang = 90
		cfg.DevPerLang = 20
		cfg.TestPerLang = 30
	}
	return cfg
}

// Pipeline holds the shared state of an experiment run: corpus, cached
// per-front-end supervectors, baseline models, and memoized DBA outcomes.
// Decoding happens exactly once (the paper's cost argument), and every
// table draws on the same pipeline.
type Pipeline struct {
	Scale Scale
	Seed  uint64

	Corpus *corpus.Corpus
	FEs    []*frontend.FrontEnd
	Feats  []*vsm.Features

	// Data[q] carries train (train split) and test (pooled 30/10/3 s)
	// supervectors for DBA.
	Data        []*dba.SubsystemData
	TrainLabels []int
	DevLabels   []int // pooled dev (30, 10, 3 s order)
	TestLabels  []int
	// TestIdx/DevIdx[dur] are pooled indices belonging to a duration tier.
	TestIdx map[float64][]int
	DevIdx  map[float64][]int

	Baseline       []*svm.OneVsRest
	BaselineScores [][][]float64 // [q][j][k] over pooled test (raw, for eval)
	VoteScores     [][][]float64 // calibrated copy driving Eq. 13 voting
	BaselineDev    [][][]float64 // [q][i][k] over dev

	SVMOptions svm.Options

	// ck is the checkpoint store every phase restores from and saves to
	// (nil: no checkpointing).
	ck *checkpoint.Store

	mu       sync.Mutex
	outcomes map[outcomeKey]*dba.Outcome

	// Cascade state (internal/cascade): the trained tier-1 model,
	// memoized — BuildBundle, the golden table, and the bench share one
	// model. fusionBk memoizes the dev-trained fusion backend BuildBundle
	// ships (the heavy path's decision scorer, also needed for cascade
	// calibration).
	cascadeModelMu sync.Mutex
	cascadeModel   *cascade.Model
	fusionMu       sync.Mutex
	fusionTrained  bool
	fusionBk       *fusion.Backend
}

type outcomeKey struct {
	v      int
	method dba.Method
}

// NumLangs is the closed-set size of every pipeline.
const NumLangs = synthlang.NumLanguages

// BuildPipeline generates the corpus, extracts supervectors for all six
// front-ends, and trains the baseline subsystems.
func BuildPipeline(scale Scale, seed uint64) *Pipeline {
	p, err := BuildPipelineCK(scale, seed, nil)
	if err != nil {
		// Without a checkpoint store the only error source is extraction's
		// quarantine overflow.
		panic(err)
	}
	return p
}

// BuildPipelineCK is BuildPipeline with checkpoint/resume: when ck is
// non-nil, each phase (per-front-end extraction, baseline training,
// baseline scoring) first tries its checkpoint and saves one after
// computing. Resumed phases are bit-identical to computed ones — gob
// round-trips float64 exactly, and everything derived (vote calibration,
// duration indices) is recomputed deterministically. The error return
// surfaces per-utterance quarantine overflow (see vsm.ExtractChecked).
func BuildPipelineCK(scale Scale, seed uint64, ck *checkpoint.Store) (*Pipeline, error) {
	sp := obs.StartSpan("pipeline.build")
	defer sp.End()
	sp.SetLabel("scale", scale.String())
	sp.SetAttr("seed", float64(seed))

	p := &Pipeline{
		Scale:      scale,
		Seed:       seed,
		SVMOptions: vsm.DefaultSVMOptions(),
		ck:         ck,
		outcomes:   make(map[outcomeKey]*dba.Outcome),
		TestIdx:    make(map[float64][]int),
		DevIdx:     make(map[float64][]int),
	}
	p.SVMOptions.Seed = seed
	corpusSp := sp.StartChild("corpus")
	p.Corpus = corpus.Build(CorpusConfig(scale, seed))
	corpusSp.SetAttr("train", float64(p.Corpus.Train.Len()))
	corpusSp.End()
	p.FEs = frontend.StandardSix(seed)

	// Supervector extraction decodes every utterance through every
	// front-end — the pipeline's dominant cost. Each front-end gets its own
	// child span (they extract concurrently, so siblings overlap in time).
	// With a checkpoint store, a front-end whose snapshot fits the run is
	// restored instead of re-decoded; Store.Save serializes internally, so
	// the parallel loop can checkpoint each front-end as it finishes.
	extractSp := sp.StartChild("extract")
	p.Feats = make([]*vsm.Features, len(p.FEs))
	extractErrs := make([]error, len(p.FEs))
	parallel.For(len(p.FEs), func(q int) {
		fe := p.FEs[q]
		keepBest := fe.Name == CascadeFrontEnd
		feSp := extractSp.StartChild("extract." + fe.Name)
		defer feSp.End()
		key := "features-" + fe.Name
		var snap vsm.FeaturesSnapshot
		if restore(ck, key, &snap, func() (err error) {
			p.Feats[q], err = fitFeatures(fe, &snap, p.Corpus)
			return err
		}) {
			feSp.SetLabel("source", "checkpoint")
			feSp.SetAttr("dim", float64(p.Feats[q].Dim()))
			return
		}
		f, err := vsm.ExtractChecked(fe, p.Corpus, vsm.ExtractOptions{Seed: seed, KeepBestPath: keepBest})
		if err != nil {
			extractErrs[q] = err
			return
		}
		p.Feats[q] = f
		feSp.SetAttr("dim", float64(f.Dim()))
		save(ck, key, f.Snapshot())
	})
	extractSp.End()
	for _, err := range extractErrs {
		if err != nil {
			return nil, err
		}
	}

	pooled := p.Corpus.AllTest()
	p.TrainLabels = p.Corpus.Train.Labels()
	p.DevLabels = p.Corpus.AllDev().Labels()
	p.TestLabels = pooled.Labels()
	// Duration tiers index into the pooled order (30, 10, 3).
	testOff, devOff := 0, 0
	for _, dur := range corpus.Durations {
		n := p.Corpus.Test[dur].Len()
		idx := make([]int, n)
		for i := range idx {
			idx[i] = testOff + i
		}
		p.TestIdx[dur] = idx
		testOff += n

		dn := p.Corpus.Dev[dur].Len()
		didx := make([]int, dn)
		for i := range didx {
			didx[i] = devOff + i
		}
		p.DevIdx[dur] = didx
		devOff += dn
	}

	p.Data = make([]*dba.SubsystemData, len(p.FEs))
	for q, f := range p.Feats {
		p.Data[q] = &dba.SubsystemData{
			Name:  p.FEs[q].Name,
			Dim:   f.Dim(),
			Train: f.Vectors(p.Corpus.Train),
			Test:  f.Vectors(pooled),
		}
	}

	// Baseline phase: models and their raw test/dev score matrices are
	// checkpointed as a pair — restoring models without their scores (or
	// vice versa) would split one phase across two generations.
	var baseline []*svm.OneVsRest
	var ss scoresSnap
	if restore(ck, "baseline", &baseline, func() error { return p.fitModels(baseline) }) &&
		restore(ck, "baseline-scores", &ss, func() error { return p.fitScores(ss) }) {
		p.Baseline = baseline
		p.BaselineScores = ss.Test
		p.BaselineDev = ss.Dev
	} else {
		trainSp := sp.StartChild("train-baseline")
		p.Baseline = dba.TrainBaseline(p.Data, p.TrainLabels, NumLangs, p.SVMOptions)
		trainSp.SetAttr("subsystems", float64(len(p.Data)))
		trainSp.End()
		scoreSp := sp.StartChild("score-baseline")
		p.BaselineScores = dba.ScoreAll(p.Baseline, p.Data)
		scoreSp.End()
		devSp := sp.StartChild("dev-score")
		p.BaselineDev = p.DevScores(p.Baseline)
		devSp.End()
		save(ck, "baseline", p.Baseline)
		save(ck, "baseline-scores", &scoresSnap{Test: p.BaselineScores, Dev: p.BaselineDev})
	}

	// Vote calibration: the Eq. 13 criterion (target > 0, all others < 0)
	// needs each language model's zero to sit at a sensible detection
	// operating point, which raw one-vs-rest SVM scores do not guarantee
	// (the 1-vs-22 imbalance biases them negative, and score ranges shrink
	// with utterance duration). The paper calibrates single-system scores
	// (Section 4.1, LDA-MMI); we use the scalar equivalent: per-model,
	// per-duration thresholds placed at a low dev false-alarm rate, shrunk
	// toward the subsystem-pooled threshold when the dev set is small. The
	// calibrated copy drives voting only — EER/Cavg are computed from the
	// unshifted scores, keeping evaluation and selection concerns separate.
	calSp := sp.StartChild("vote-calibrate")
	p.VoteScores = p.voteScores(p.BaselineScores, p.BaselineDev, VoteCalibrationFA)
	calSp.End()
	return p, nil
}

// VoteCalibrationFA is the dev false-alarm rate at which vote thresholds
// are placed. Lower values make votes rarer but cleaner; 3 % reproduces
// the paper's Table 1 selection/error trade-off.
const VoteCalibrationFA = 0.03

// voteScores returns a copy of the pooled test scores with
// per-(subsystem, duration, model) thresholds subtracted, each placed at
// dev false-alarm rate fa on the matching dev scores.
func (p *Pipeline) voteScores(test, dev [][][]float64, fa float64) [][][]float64 {
	out := make([][][]float64, len(test))
	for q, mat := range test {
		out[q] = make([][]float64, len(mat))
		for _, dur := range corpus.Durations {
			shifts := voteShiftsForTier(dev[q], p.DevLabels, p.DevIdx[dur], fa)
			for _, j := range p.TestIdx[dur] {
				out[q][j] = dba.Calibrate(mat[j], shifts)
			}
		}
	}
	return out
}

// voteShiftsForTier computes per-model vote thresholds from one duration
// tier of a subsystem's dev scores: the score at dev false-alarm rate fa,
// shrunk toward the tier-pooled threshold in proportion to the per-model
// target count.
func voteShiftsForTier(devMat [][]float64, devLabels []int, tierIdx []int, fa float64) []float64 {
	if len(tierIdx) == 0 || len(devMat) == 0 {
		return nil
	}
	k := len(devMat[0])
	shifts := make([]float64, k)
	var pooled []metrics.Trial
	for _, i := range tierIdx {
		for model, s := range devMat[i] {
			pooled = append(pooled, metrics.Trial{Score: s, Target: devLabels[i] == model})
		}
	}
	pooledTh := metrics.ThresholdAtFA(pooled, fa)
	for model := 0; model < k; model++ {
		trials := make([]metrics.Trial, 0, len(tierIdx))
		nTar := 0
		for _, i := range tierIdx {
			target := devLabels[i] == model
			if target {
				nTar++
			}
			trials = append(trials, metrics.Trial{Score: devMat[i][model], Target: target})
		}
		th := metrics.ThresholdAtFA(trials, fa)
		// Shrinkage: few dev targets → trust the pooled threshold.
		w := float64(nTar) / (float64(nTar) + 8)
		shifts[model] = pooledTh + w*(th-pooledTh)
	}
	return shifts
}

// pooledVoteShifts is subsystem q's vote calibration pooled over every dev
// duration at VoteCalibrationFA: the shifts the adapt sidecar carries
// (BuildAdaptSet) and the replay export votes with (ExportRequests).
func (p *Pipeline) pooledVoteShifts(q int) []float64 {
	allDev := make([]int, len(p.DevLabels))
	for i := range allDev {
		allDev[i] = i
	}
	return voteShiftsForTier(p.BaselineDev[q], p.DevLabels, allDev, VoteCalibrationFA)
}

// DBAOutcome runs (or returns the memoized) DBA pass for a threshold and
// method. With a checkpoint store attached, a completed pass is restored
// from disk instead of retrained: the checkpoint is the Outcome itself.
func (p *Pipeline) DBAOutcome(v int, method dba.Method) *dba.Outcome {
	key := outcomeKey{v: v, method: method}
	p.mu.Lock()
	if o, ok := p.outcomes[key]; ok {
		p.mu.Unlock()
		return o
	}
	p.mu.Unlock()
	ckKey := fmt.Sprintf("dba-v%d-%s", v, method)
	o := new(dba.Outcome)
	if !restore(p.ck, ckKey, o, func() error { return p.fitModels(o.Retrained) }) {
		o = dba.Run(p.Data, p.TrainLabels, p.Baseline, p.VoteScores, dba.Config{
			Threshold:  v,
			Method:     method,
			NumLangs:   NumLangs,
			SVMOptions: p.SVMOptions,
		})
		save(p.ck, ckKey, o)
	}
	p.mu.Lock()
	p.outcomes[key] = o
	p.mu.Unlock()
	return o
}

// DevScores scores the dev split with a set of per-subsystem models (for
// fusion backend training on second-pass systems).
func (p *Pipeline) DevScores(models []*svm.OneVsRest) [][][]float64 {
	out := make([][][]float64, len(models))
	for q, mdl := range models {
		devVecs := p.Feats[q].Vectors(p.Corpus.AllDev())
		out[q] = mdl.ScoreAll(devVecs)
	}
	return out
}

// Eval computes EER and minimum Cavg (both in percent) of one subsystem's
// pooled score matrix restricted to the given test indices.
func Eval(scoreMat [][]float64, labels []int, idx []int) (eerPct, cavgPct float64) {
	pairs := pairTrials(scoreMat, labels, idx)
	eer := metrics.EER(metrics.PairTrialsToDetection(pairs))
	cavg, _ := metrics.MinCavg(pairs, NumLangs)
	return eer * 100, cavg * 100
}

// pairTrials lists the (utterance, language) pair trials of a score
// matrix subset: every score of row j for j in idx, against labels[j].
func pairTrials(scoreMat [][]float64, labels []int, idx []int) []metrics.PairTrial {
	var pairs []metrics.PairTrial
	for _, j := range idx {
		for k, s := range scoreMat[j] {
			pairs = append(pairs, metrics.PairTrial{Model: k, True: labels[j], Score: s})
		}
	}
	return pairs
}
