package experiments

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/cascade"
	"repro/internal/corpus"
	"repro/internal/fusion"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/vsm"
)

// CascadeFrontEnd is the designated tier-1 front-end: the paper's
// best-performing single recognizer (Table 2), so its 1-best stream gives
// the cheap tier the best shot at a clean margin.
const CascadeFrontEnd = "HU"

// TierNameFor renders a duration tier's name ("30s", "10s", "3s") — the
// keys the cascade policy and BENCH_cascade.json use.
func TierNameFor(dur float64) string { return fmt.Sprintf("%gs", dur) }

// TierNames lists the duration tiers longest-first, matching
// corpus.Durations and the cascade model's tier order.
func TierNames() []string {
	names := make([]string, len(corpus.Durations))
	for i, dur := range corpus.Durations {
		names[i] = TierNameFor(dur)
	}
	return names
}

// cascadeFeats returns the designated front-end's feature cache, which
// kept every utterance's 1-best string from the lattices its supervectors
// were extracted from (BuildPipelineCK); nil if the pipeline lacks it.
func (p *Pipeline) cascadeFeats() *vsm.Features {
	for q, fe := range p.FEs {
		if fe.Name == CascadeFrontEnd {
			return p.Feats[q]
		}
	}
	return nil
}

// TrainCascade fits and calibrates the tier-1 cascade model on the
// pipeline's train/dev splits: per-language Kneser–Ney bigrams over the
// 1-best strings the designated front-end's extraction kept, per-tier
// required margins at the default accuracy target, and the affine map
// onto the heavy fused-score scale — the bundle backend's decision rows
// (fusion.DecideAll), exactly what the server answers an escalated
// request with. Memoized — BuildBundle and the eval/bench paths share
// one model.
func (p *Pipeline) TrainCascade() (*cascade.Model, error) {
	p.cascadeModelMu.Lock()
	defer p.cascadeModelMu.Unlock()
	if p.cascadeModel != nil {
		return p.cascadeModel, nil
	}
	f := p.cascadeFeats()
	if f == nil {
		return nil, fmt.Errorf("experiments: pipeline has no front-end %q", CascadeFrontEnd)
	}
	sp := obs.StartSpan("cascade.train")
	defer sp.End()
	trainSeqs := make([][][]int, NumLangs)
	for i, seq := range f.BestPaths(p.Corpus.Train) {
		label := p.TrainLabels[i]
		trainSeqs[label] = append(trainSeqs[label], seq)
	}
	devSeqs := f.BestPaths(p.Corpus.AllDev())
	heavyDev := fusion.DecideAll(p.fusionBackend(), p.BaselineDev)
	var dev []cascade.DevExample
	for ti, dur := range corpus.Durations {
		for _, i := range p.DevIdx[dur] {
			dev = append(dev, cascade.DevExample{
				Seq:   devSeqs[i],
				Label: p.DevLabels[i],
				Tier:  ti,
				Heavy: heavyDev[i],
			})
		}
	}
	m, err := cascade.Train(f.FE.Name, f.FE.Set.Size, trainSeqs, TierNames(), dev, cascade.TrainConfig{})
	if err != nil {
		return nil, err
	}
	p.cascadeModel = m
	return m, nil
}

// CascadeTierEval is one (duration tier, threshold offset) operating
// point of the cascade on the pipeline's test split.
type CascadeTierEval struct {
	Tier string `json:"tier"`
	// Threshold is the offset as a Go float string ("-Inf", "0", "0.05"):
	// encoding/json cannot represent ±Inf, and the endpoints are the most
	// important points of the curve.
	Threshold string `json:"threshold"`
	Total     int    `json:"total"`
	Exited    int    `json:"exited"`
	// ExitFrac is the traffic fraction answered at tier 1.
	ExitFrac float64 `json:"exit_frac"`
	// Tier1AccPct is the argmax accuracy of the exited subset (100 when
	// nothing exits, by convention: an empty fast path is vacuously
	// correct).
	Tier1AccPct float64 `json:"tier1_acc_pct"`
	// EERHeavyPct / EERCascadePct are the detection EERs of the pure
	// heavy path and of the mixed (tier-1-where-exited) score set.
	EERHeavyPct   float64 `json:"eer_heavy_pct"`
	EERCascadePct float64 `json:"eer_cascade_pct"`
	// EERDeltaPct is cascade − heavy (positive = the fast path costs
	// accuracy).
	EERDeltaPct float64 `json:"eer_delta_pct"`
}

// evalCascadeTier evaluates one duration tier under a threshold offset.
func (p *Pipeline) evalCascadeTier(m *cascade.Model, seqs [][]int, heavy [][]float64, ti int, threshold float64) CascadeTierEval {
	dur := corpus.Durations[ti]
	idx := p.TestIdx[dur]
	ev := CascadeTierEval{
		Tier:        TierNameFor(dur),
		Threshold:   strconv.FormatFloat(threshold, 'g', -1, 64),
		Total:       len(idx),
		Tier1AccPct: 100,
	}
	// mixed answers each utterance the way the cascade would: tier 1's
	// scores where it exits, the heavy path's elsewhere.
	mixed := make([][]float64, len(heavy))
	correct := 0
	for _, j := range idx {
		mixed[j] = heavy[j]
		d := m.Decide(seqs[j], threshold)
		if d.Exit {
			ev.Exited++
			mixed[j] = d.Scores
			if d.Best == p.TestLabels[j] {
				correct++
			}
		}
	}
	if ev.Total > 0 {
		ev.ExitFrac = float64(ev.Exited) / float64(ev.Total)
	}
	if ev.Exited > 0 {
		ev.Tier1AccPct = 100 * float64(correct) / float64(ev.Exited)
	}
	eerPct := func(mat [][]float64) float64 {
		return 100 * metrics.EER(metrics.PairTrialsToDetection(pairTrials(mat, p.TestLabels, idx)))
	}
	ev.EERCascadePct = eerPct(mixed)
	ev.EERHeavyPct = eerPct(heavy)
	ev.EERDeltaPct = ev.EERCascadePct - ev.EERHeavyPct
	return ev
}

// EvalCascade evaluates every duration tier at one policy (per-tier
// threshold offsets), against the heavy path's fused test scores.
func (p *Pipeline) EvalCascade(m *cascade.Model, pol cascade.Policy) []CascadeTierEval {
	seqs := p.cascadeFeats().BestPaths(p.Corpus.AllTest())
	heavy := fusion.DecideAll(p.fusionBackend(), p.BaselineScores)
	out := make([]CascadeTierEval, len(corpus.Durations))
	for ti, dur := range corpus.Durations {
		out[ti] = p.evalCascadeTier(m, seqs, heavy, ti, pol.Threshold(TierNameFor(dur)))
	}
	return out
}

// CascadeSweepThresholds is the offset grid of the tradeoff curve:
// −Inf (escalate all — the bit-identity referee's operating point) through
// the calibrated region to +Inf (everything exits). Offsets are in margin
// units (per-phone LLR gap).
var CascadeSweepThresholds = []float64{
	math.Inf(-1), -0.2, -0.1, -0.05, -0.02,
	0, 0.02, 0.05, 0.1, 0.2, 0.4, math.Inf(1),
}

// SweepCascade evaluates every tier across the full threshold grid — the
// accuracy/traffic-fraction tradeoff curve of BENCH_cascade.json.
func (p *Pipeline) SweepCascade(m *cascade.Model) []CascadeTierEval {
	seqs := p.cascadeFeats().BestPaths(p.Corpus.AllTest())
	heavy := fusion.DecideAll(p.fusionBackend(), p.BaselineScores)
	var out []CascadeTierEval
	for ti := range corpus.Durations {
		for _, th := range CascadeSweepThresholds {
			out = append(out, p.evalCascadeTier(m, seqs, heavy, ti, th))
		}
	}
	return out
}

// CascadeBench is the committed BENCH_cascade.json payload: a pure
// function of scale and seed. The cascade's serving cost is measured by
// bench/run.sh's lattice-cascade workload (cascade.exit_ratio,
// cascade.tier1_us), not here.
type CascadeBench struct {
	Scale    string `json:"scale"`
	Seed     uint64 `json:"seed"`
	FrontEnd string `json:"front_end"`
	Policy   string `json:"policy"`
	// Default holds every tier's operating point at the default policy
	// (the calibrated margins as-is); Curve the full threshold sweep.
	Default []CascadeTierEval `json:"default"`
	Curve   []CascadeTierEval `json:"curve"`
}

// RunCascadeBench trains the cascade (if needed), evaluates the default
// policy and sweeps the threshold grid.
func (p *Pipeline) RunCascadeBench() (*CascadeBench, error) {
	m, err := p.TrainCascade()
	if err != nil {
		return nil, err
	}
	var pol cascade.Policy
	return &CascadeBench{
		Scale:    p.Scale.String(),
		Seed:     p.Seed,
		FrontEnd: m.FrontEnd,
		Policy:   pol.String(),
		Default:  p.EvalCascade(m, pol),
		Curve:    p.SweepCascade(m),
	}, nil
}
