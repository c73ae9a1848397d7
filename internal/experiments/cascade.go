package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/cascade"
	"repro/internal/corpus"
	"repro/internal/fusion"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
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
// accuracy/latency/traffic-fraction tradeoff curve of BENCH_cascade.json.
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

// CascadeThroughput is the measured serving-cost comparison for one
// duration tier: the heavy path (supervector extraction + TFLLR + OVR
// for every front-end + fusion — what the server runs per request) vs the
// cascade (tier-1 1-best scoring for all, heavy only for escalations).
// Decoding is excluded on both sides: clients supply lattices.
type CascadeThroughput struct {
	Tier     string  `json:"tier"`
	Requests int     `json:"requests"`
	ExitFrac float64 `json:"exit_frac"`
	// HeavyUttPerSec / CascadeUttPerSec are single-threaded scoring
	// throughputs over the tier's test utterances.
	HeavyUttPerSec   float64 `json:"heavy_utt_per_sec"`
	CascadeUttPerSec float64 `json:"cascade_utt_per_sec"`
	Speedup          float64 `json:"speedup"`
}

// BenchCascadeTier measures one tier's throughput at a threshold offset.
// Lattices are pre-decoded (untimed); both loops run single-threaded so
// the ratio prices work, not scheduling.
func (p *Pipeline) BenchCascadeTier(m *cascade.Model, ti int, threshold float64) (CascadeThroughput, error) {
	dur := corpus.Durations[ti]
	items := p.Corpus.Test[dur].Items
	tp := CascadeThroughput{Tier: TierNameFor(dur), Requests: len(items)}

	// Pre-decode every front-end's lattice for the tier (the client-side
	// cost in serving, excluded from both timings).
	lats := make([][]*lattice.Lattice, len(p.FEs))
	for q, fe := range p.FEs {
		lats[q] = make([]*lattice.Lattice, len(items))
		root := rng.New(p.Seed).SplitString("extract:" + fe.Name)
		parallel.ForPool("cascade.bench.decode", len(items), func(i int) {
			lats[q][i] = fe.Decode(root.Split(uint64(items[i].ID)), items[i].U)
		})
	}
	desigQ := -1
	for q, fe := range p.FEs {
		if fe.Name == m.FrontEnd {
			desigQ = q
		}
	}
	if desigQ < 0 {
		return tp, fmt.Errorf("experiments: bench has no front-end %q", m.FrontEnd)
	}
	bk := p.fusionBackend()

	heavyScore := func(i int) []float64 {
		rows := make([][]float64, len(p.FEs))
		for q := range p.FEs {
			v := p.FEs[q].Space.Supervector(lats[q][i])
			if p.Feats[q].TF != nil {
				p.Feats[q].TF.Apply(v)
			}
			rows[q] = p.Baseline[q].Scores(v)
		}
		return fusion.Decide(bk, rows)
	}

	start := time.Now()
	for i := range items {
		heavyScore(i)
	}
	heavySec := time.Since(start).Seconds()

	exited := 0
	start = time.Now()
	for i := range items {
		seq, _ := lats[desigQ][i].BestPath()
		d := m.Decide(seq, threshold)
		if d.Exit {
			exited++
		} else {
			heavyScore(i)
		}
	}
	cascadeSec := time.Since(start).Seconds()

	if len(items) > 0 {
		tp.ExitFrac = float64(exited) / float64(len(items))
		tp.HeavyUttPerSec = float64(len(items)) / heavySec
		tp.CascadeUttPerSec = float64(len(items)) / cascadeSec
	}
	if cascadeSec > 0 {
		tp.Speedup = heavySec / cascadeSec
	}
	return tp, nil
}

// CascadeBench is the committed BENCH_cascade.json payload.
type CascadeBench struct {
	Scale     string `json:"scale"`
	Seed      uint64 `json:"seed"`
	FrontEnd  string `json:"front_end"`
	Policy    string `json:"policy"`
	CreatedAt string `json:"created_at,omitempty"`
	// Default holds every tier's operating point at the default policy;
	// Curve the full threshold sweep; Throughput the measured per-tier
	// serving-cost comparison at the default policy.
	Default    []CascadeTierEval   `json:"default"`
	Curve      []CascadeTierEval   `json:"curve"`
	Throughput []CascadeThroughput `json:"throughput"`
}

// RunCascadeBench trains the cascade (if needed), sweeps the threshold
// grid, and measures per-tier throughput at the given policy.
func (p *Pipeline) RunCascadeBench(pol cascade.Policy) (*CascadeBench, error) {
	m, err := p.TrainCascade()
	if err != nil {
		return nil, err
	}
	bench := &CascadeBench{
		Scale:    p.Scale.String(),
		Seed:     p.Seed,
		FrontEnd: m.FrontEnd,
		Policy:   pol.String(),
		Default:  p.EvalCascade(m, pol),
		Curve:    p.SweepCascade(m),
	}
	for ti := range corpus.Durations {
		tp, err := p.BenchCascadeTier(m, ti, pol.Threshold(TierNameFor(corpus.Durations[ti])))
		if err != nil {
			return nil, err
		}
		bench.Throughput = append(bench.Throughput, tp)
	}
	return bench, nil
}

// CascadeTable is the golden-pinned tradeoff table: one row per duration
// tier at the default threshold.
type CascadeTable struct {
	FrontEnd string
	Rows     []CascadeTierEval
}

// RunCascadeTable trains the cascade and evaluates the default policy
// (offset 0 — the calibrated per-tier margins as-is).
func (p *Pipeline) RunCascadeTable() (*CascadeTable, error) {
	m, err := p.TrainCascade()
	if err != nil {
		return nil, err
	}
	return &CascadeTable{FrontEnd: m.FrontEnd, Rows: p.EvalCascade(m, cascade.Policy{})}, nil
}

// String renders the golden-pinned layout.
func (t *CascadeTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cascade: tier-1 tradeoff at the default threshold (front-end %s)\n", t.FrontEnd)
	fmt.Fprintf(&b, "%-5s %8s %10s %10s %12s %8s\n", "Dur", "Exit%", "Tier1Acc%", "EERheavy", "EERcascade", "dEER")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-5s %7.2f%% %9.2f%% %10.2f %12.2f %8.2f\n",
			r.Tier, 100*r.ExitFrac, r.Tier1AccPct, r.EERHeavyPct, r.EERCascadePct, r.EERDeltaPct)
	}
	return b.String()
}
