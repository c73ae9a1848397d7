package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/cascade"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
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

// cascadeSeqs caches the designated front-end's 1-best decodes, aligned
// with the pipeline's split orders (train split order; pooled dev/test
// order). Decoding reuses the exact per-utterance rng streams of
// vsm.Extract — (seed, front-end name, item ID) — so the 1-best strings
// come from the very lattices the supervectors were extracted from.
type cascadeSeqs struct {
	Train [][]int
	Dev   [][]int
	Test  [][]int
}

func (p *Pipeline) cascadeFE() (*frontend.FrontEnd, error) {
	for _, fe := range p.FEs {
		if fe.Name == CascadeFrontEnd {
			return fe, nil
		}
	}
	return nil, fmt.Errorf("experiments: pipeline has no front-end %q", CascadeFrontEnd)
}

func decode1Best(fe *frontend.FrontEnd, root *rng.RNG, items []*corpus.Item) [][]int {
	out := make([][]int, len(items))
	parallel.ForPool("cascade.decode", len(items), func(i int) {
		it := items[i]
		r := root.Split(uint64(it.ID))
		lat := fe.Decode(r, it.U)
		out[i], _ = lat.BestPath()
	})
	return out
}

func (p *Pipeline) cascadeSeqsOnce() (*cascadeSeqs, error) {
	p.cascadeMu.Lock()
	defer p.cascadeMu.Unlock()
	if p.cascadeSeq != nil {
		return p.cascadeSeq, nil
	}
	fe, err := p.cascadeFE()
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan("cascade.decode-1best")
	defer sp.End()
	sp.SetLabel("frontend", fe.Name)
	root := rng.New(p.Seed).SplitString("extract:" + fe.Name)
	p.cascadeSeq = &cascadeSeqs{
		Train: decode1Best(fe, root, p.Corpus.Train.Items),
		Dev:   decode1Best(fe, root, p.Corpus.AllDev().Items),
		Test:  decode1Best(fe, root, p.Corpus.AllTest().Items),
	}
	return p.cascadeSeq, nil
}

// heavyDecisionScores computes the heavy path's decision matrix for a
// pooled score set: the fusion backend's target log-odds when the bundle
// fuses, else the mean across front-ends (mirroring serve.AssembleResult's
// fallback).
func (p *Pipeline) heavyDecisionScores(perFE [][][]float64) [][]float64 {
	bk := p.fusionBackend()
	n := len(perFE[0])
	out := make([][]float64, n)
	x := make([]float64, len(perFE))
	for j := 0; j < n; j++ {
		row := make([]float64, NumLangs)
		for k := 0; k < NumLangs; k++ {
			if bk != nil {
				for q := range perFE {
					x[q] = perFE[q][j][k]
				}
				row[k] = bk.Score(x)[1]
			} else {
				for q := range perFE {
					row[k] += perFE[q][j][k] / float64(len(perFE))
				}
			}
		}
		out[j] = row
	}
	return out
}

// TrainCascade fits and calibrates the tier-1 cascade model on the
// pipeline's train/dev splits: per-language Kneser–Ney bigrams over the
// designated front-end's 1-best decodes, per-tier required margins at the
// default accuracy target, and the affine map onto the heavy fused-score
// scale. Memoized — BuildBundle and the eval/bench paths share one model.
func (p *Pipeline) TrainCascade() (*cascade.Model, error) {
	p.cascadeModelMu.Lock()
	defer p.cascadeModelMu.Unlock()
	if p.cascadeModel != nil {
		return p.cascadeModel, nil
	}
	seqs, err := p.cascadeSeqsOnce()
	if err != nil {
		return nil, err
	}
	fe, err := p.cascadeFE()
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan("cascade.train")
	defer sp.End()
	trainSeqs := make([][][]int, NumLangs)
	for i, it := range p.Corpus.Train.Items {
		trainSeqs[it.Label] = append(trainSeqs[it.Label], seqs.Train[i])
	}
	heavyDev := p.heavyDecisionScores(p.BaselineDev)
	var dev []cascade.DevExample
	for ti, dur := range corpus.Durations {
		for _, i := range p.DevIdx[dur] {
			dev = append(dev, cascade.DevExample{
				Seq:   seqs.Dev[i],
				Label: p.DevLabels[i],
				Tier:  ti,
				Heavy: heavyDev[i],
			})
		}
	}
	m, err := cascade.Train(fe.Name, fe.Set.Size, trainSeqs, TierNames(), dev, cascade.TrainConfig{})
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
func (p *Pipeline) evalCascadeTier(m *cascade.Model, seqs *cascadeSeqs, heavy [][]float64, ti int, threshold float64) CascadeTierEval {
	dur := corpus.Durations[ti]
	idx := p.TestIdx[dur]
	ev := CascadeTierEval{
		Tier:        TierNameFor(dur),
		Threshold:   strconv.FormatFloat(threshold, 'g', -1, 64),
		Total:       len(idx),
		Tier1AccPct: 100,
	}
	var pairs []metrics.PairTrial
	correct := 0
	for _, j := range idx {
		row := heavy[j]
		d := m.Decide(seqs.Test[j], threshold)
		if d.Exit {
			ev.Exited++
			row = d.Scores
			if d.Best == p.TestLabels[j] {
				correct++
			}
		}
		for k, s := range row {
			pairs = append(pairs, metrics.PairTrial{Model: k, True: p.TestLabels[j], Score: s})
		}
	}
	if ev.Total > 0 {
		ev.ExitFrac = float64(ev.Exited) / float64(ev.Total)
	}
	if ev.Exited > 0 {
		ev.Tier1AccPct = 100 * float64(correct) / float64(ev.Exited)
	}
	ev.EERCascadePct = 100 * metrics.EER(metrics.PairTrialsToDetection(pairs))
	heavyEER, _ := Eval(heavy, p.TestLabels, idx)
	ev.EERHeavyPct = heavyEER
	ev.EERDeltaPct = ev.EERCascadePct - ev.EERHeavyPct
	return ev
}

// EvalCascade evaluates every duration tier at one policy (per-tier
// threshold offsets), against the heavy path's fused test scores.
func (p *Pipeline) EvalCascade(m *cascade.Model, pol cascade.Policy) ([]CascadeTierEval, error) {
	seqs, err := p.cascadeSeqsOnce()
	if err != nil {
		return nil, err
	}
	heavy := p.heavyDecisionScores(p.BaselineScores)
	out := make([]CascadeTierEval, len(corpus.Durations))
	for ti, dur := range corpus.Durations {
		out[ti] = p.evalCascadeTier(m, seqs, heavy, ti, pol.Threshold(TierNameFor(dur)))
	}
	return out, nil
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
func (p *Pipeline) SweepCascade(m *cascade.Model) ([]CascadeTierEval, error) {
	seqs, err := p.cascadeSeqsOnce()
	if err != nil {
		return nil, err
	}
	heavy := p.heavyDecisionScores(p.BaselineScores)
	var out []CascadeTierEval
	for ti := range corpus.Durations {
		for _, th := range CascadeSweepThresholds {
			out = append(out, p.evalCascadeTier(m, seqs, heavy, ti, th))
		}
	}
	return out, nil
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
		x := make([]float64, len(p.FEs))
		rows := make([][]float64, len(p.FEs))
		for q := range p.FEs {
			v := p.FEs[q].Space.Supervector(lats[q][i])
			if p.Feats[q].TF != nil {
				p.Feats[q].TF.Apply(v)
			}
			rows[q] = p.Baseline[q].Scores(v)
		}
		fused := make([]float64, NumLangs)
		for k := 0; k < NumLangs; k++ {
			for q := range rows {
				x[q] = rows[q][k]
			}
			if bk != nil {
				fused[k] = bk.Score(x)[1]
			}
		}
		return fused
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
	def, err := p.EvalCascade(m, pol)
	if err != nil {
		return nil, err
	}
	curve, err := p.SweepCascade(m)
	if err != nil {
		return nil, err
	}
	bench := &CascadeBench{
		Scale:    p.Scale.String(),
		Seed:     p.Seed,
		FrontEnd: m.FrontEnd,
		Policy:   pol.String(),
		Default:  def,
		Curve:    curve,
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
	rows, err := p.EvalCascade(m, cascade.Policy{})
	if err != nil {
		return nil, err
	}
	return &CascadeTable{FrontEnd: m.FrontEnd, Rows: rows}, nil
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
