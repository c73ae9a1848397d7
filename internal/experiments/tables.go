package experiments

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/dba"
	"repro/internal/fusion"
	"repro/internal/metrics"
)

// Cell is one EER/Cavg measurement in percent.
type Cell struct {
	EER, Cavg float64
}

// Table1 reproduces paper Table 1: the composition of T_DBA as the vote
// threshold V varies.
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one threshold setting.
type Table1Row struct {
	V    int
	Size int
	// ByDuration counts selected utterances per tier.
	ByDuration map[float64]int
	// ErrorRatePct is the label error of the selection against truth.
	ErrorRatePct float64
}

// RunTable1 sweeps V = 6…1 over the baseline votes.
func RunTable1(p *Pipeline) *Table1 {
	votes := dba.CountVotes(p.VoteScores)
	t := &Table1{}
	for v := 6; v >= 1; v-- {
		sel := dba.Select(votes, v)
		row := Table1Row{
			V:            v,
			Size:         len(sel),
			ByDuration:   make(map[float64]int),
			ErrorRatePct: dba.SelectionErrorRate(sel, p.TestLabels) * 100,
		}
		durOf := make(map[int]float64)
		for _, dur := range corpus.Durations {
			for _, j := range p.TestIdx[dur] {
				durOf[j] = dur
			}
		}
		for _, h := range sel {
			row.ByDuration[durOf[h.Utt]]++
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TableDBA reproduces paper Tables 2 (DBA-M1) and 3 (DBA-M2): per
// front-end × duration EER/Cavg for the baseline and every threshold V.
type TableDBA struct {
	Method    dba.Method
	FrontEnds []string
	Durations []float64
	// Baseline[fe][dur] and ByV[v][fe][dur].
	Baseline map[string]map[float64]Cell
	ByV      map[int]map[string]map[float64]Cell
}

// RunTableDBA sweeps V for one method. Outcomes are memoized on the
// pipeline, so running both tables shares every DBA pass with Table 4.
func RunTableDBA(p *Pipeline, method dba.Method) *TableDBA {
	t := &TableDBA{
		Method:    method,
		Durations: corpus.Durations,
		Baseline:  make(map[string]map[float64]Cell),
		ByV:       make(map[int]map[string]map[float64]Cell),
	}
	for q, d := range p.Data {
		t.FrontEnds = append(t.FrontEnds, d.Name)
		t.Baseline[d.Name] = make(map[float64]Cell)
		for _, dur := range corpus.Durations {
			eer, cavg := Eval(p.BaselineScores[q], p.TestLabels, p.TestIdx[dur])
			t.Baseline[d.Name][dur] = Cell{EER: eer, Cavg: cavg}
		}
	}
	for v := 6; v >= 1; v-- {
		o := p.DBAOutcome(v, method)
		byFE := make(map[string]map[float64]Cell)
		for q, d := range p.Data {
			byFE[d.Name] = make(map[float64]Cell)
			for _, dur := range corpus.Durations {
				eer, cavg := Eval(o.Scores[q], p.TestLabels, p.TestIdx[dur])
				byFE[d.Name][dur] = Cell{EER: eer, Cavg: cavg}
			}
		}
		t.ByV[v] = byFE
	}
	return t
}

// BestV returns the threshold minimizing the mean EER across front-ends
// and durations (the paper reports V = 3 as the optimum).
func (t *TableDBA) BestV() int {
	bestV, bestMean := 0, 0.0
	for v, byFE := range t.ByV {
		var sum float64
		var n int
		for _, byDur := range byFE {
			for _, c := range byDur {
				sum += c.EER
				n++
			}
		}
		mean := sum / float64(n)
		if bestV == 0 || mean < bestMean {
			bestV, bestMean = v, mean
		}
	}
	return bestV
}

// Table4 reproduces paper Table 4: baseline vs DBA per front-end plus the
// LDA-MMI fusion of all subsystems, at V = 3 with (DBA-M1)+(DBA-M2).
type Table4 struct {
	Durations []float64
	FrontEnds []string
	// BaselineSingle[fe][dur], DBASingle[fe][dur] (M1+M2 fused per FE).
	BaselineSingle map[string]map[float64]Cell
	DBASingle      map[string]map[float64]Cell
	// BaselineFusion[dur], DBAFusion[dur] across all subsystems.
	BaselineFusion map[float64]Cell
	DBAFusion      map[float64]Cell
	// V is the threshold used (3 in the paper).
	V int
}

// fusePerDuration trains one trial-level LDA-MMI backend per duration tier
// on the dev trials (fusion.Trials, features scaled by the Eq. 15
// subsystem weights; nil: unweighted) and returns the fused test score
// matrix over the pooled test order.
//
// Trial-level fusion is the small-sample-sound form of the paper's
// Eq. 14–15 backend: with K = 23 and Q·K-dimensional per-utterance
// stacks, a per-language Gaussian backend needs far more development data
// than the corpus scales this repository runs (the paper had 22,701 dev
// conversations). A degenerate dev tier (never at supported scales)
// trains no backend, and fusion.Decide falls back to the mean row.
func (p *Pipeline) fusePerDuration(devMats, testMats [][][]float64, weights []float64) [][]float64 {
	if weights != nil {
		testMats = scaleMats(testMats, weights)
	}
	fused := make([][]float64, len(testMats[0]))
	rows := make([][]float64, len(testMats))
	for _, dur := range corpus.Durations {
		x, y := fusion.Trials(devMats, weights, p.DevLabels, p.DevIdx[dur])
		b, _ := fusion.Train(x, y, 2, fusion.DefaultConfig())
		for _, j := range p.TestIdx[dur] {
			for q := range rows {
				rows[q] = testMats[q][j]
			}
			fused[j] = fusion.Decide(b, rows)
		}
	}
	return fused
}

// scaleMats returns a copy of mats with subsystem q's scores multiplied by
// weights[q] — the test-side half of the Eq. 15 weighting whose dev-side
// half fusion.Trials applies to the training trials.
func scaleMats(mats [][][]float64, weights []float64) [][][]float64 {
	out := make([][][]float64, len(mats))
	for q, mat := range mats {
		out[q] = make([][]float64, len(mat))
		for j, row := range mat {
			out[q][j] = make([]float64, len(row))
			for k, v := range row {
				out[q][j][k] = v * weights[q]
			}
		}
	}
	return out
}

// evalFused computes EER/Cavg per duration of a fused pooled score matrix.
func (p *Pipeline) evalFused(fused [][]float64) map[float64]Cell {
	out := make(map[float64]Cell)
	for _, dur := range corpus.Durations {
		eer, cavg := Eval(fused, p.TestLabels, p.TestIdx[dur])
		out[dur] = Cell{EER: eer, Cavg: cavg}
	}
	return out
}

// RunTable4 assembles the fusion comparison at threshold v (paper: 3).
// The finished table is checkpointed whole — fusion training is the last
// expensive phase, so a resumed run that died after it replays nothing.
func RunTable4(p *Pipeline, v int) *Table4 {
	ckKey := fmt.Sprintf("table4-v%d", v)
	var cached Table4
	if restore(p.ck, ckKey, &cached, func() error {
		if cached.V != v {
			return fmt.Errorf("holds V=%d, not %d", cached.V, v)
		}
		return nil
	}) {
		return &cached
	}
	t := &Table4{
		Durations:      corpus.Durations,
		V:              v,
		BaselineSingle: make(map[string]map[float64]Cell),
		DBASingle:      make(map[string]map[float64]Cell),
	}
	for q, d := range p.Data {
		t.FrontEnds = append(t.FrontEnds, d.Name)
		t.BaselineSingle[d.Name] = make(map[float64]Cell)
		for _, dur := range corpus.Durations {
			eer, cavg := Eval(p.BaselineScores[q], p.TestLabels, p.TestIdx[dur])
			t.BaselineSingle[d.Name][dur] = Cell{EER: eer, Cavg: cavg}
		}
	}

	dev, test, weights := p.dbaSubsystems(v)
	// Per-front-end DBA rows: LDA-MMI fusion of that front-end's M1 and
	// M2 second-pass scores.
	nFE := len(p.Data)
	for q, d := range p.Data {
		devMats := [][][]float64{dev[q], dev[nFE+q]}
		testMats := [][][]float64{test[q], test[nFE+q]}
		t.DBASingle[d.Name] = p.evalFused(p.fusePerDuration(devMats, testMats, nil))
	}
	t.BaselineFusion = p.evalFused(p.fusePerDuration(p.BaselineDev, p.BaselineScores, nil))
	t.DBAFusion = p.evalFused(p.fusePerDuration(dev, test, weights))
	save(p.ck, ckKey, t)
	return t
}

// dbaSubsystems returns the twelve (DBA-M1)+(DBA-M2) second-pass
// subsystems at threshold v — dev and test score matrices, the six M1
// systems then the six M2 ones — and their paper Eq. 15 fusion weights:
// M_n is how many test utterances met subsystem n's confidence criterion
// (its Eq. 13 vote fired), and each front-end's count applies to both its
// M1 and M2 second-pass subsystems.
func (p *Pipeline) dbaSubsystems(v int) (dev, test [][][]float64, weights []float64) {
	m1 := p.DBAOutcome(v, dba.M1)
	m2 := p.DBAOutcome(v, dba.M2)
	dev = append(p.DevScores(m1.Retrained), p.DevScores(m2.Retrained)...)
	test = append(append(test, m1.Scores...), m2.Scores...)
	perFE := p.SubsystemVoteCounts()
	weights = fusion.SelectionWeights(append(append([]int{}, perFE...), perFE...))
	return dev, test, weights
}

// Fig3 reproduces paper Fig. 3: DET curves of the baseline fusion vs the
// (DBA-M1)+(DBA-M2) fusion, per duration.
type Fig3 struct {
	// Curves[dur] holds the two systems' DET points.
	Curves map[float64]Fig3Curves
	V      int
}

// Fig3Curves pairs the two systems at one duration.
type Fig3Curves struct {
	Baseline []metrics.DETPoint
	DBA      []metrics.DETPoint
}

// RunFig3 computes the DET curves from the same fusions as Table 4.
func RunFig3(p *Pipeline, v int) *Fig3 {
	baseFused := p.fusePerDuration(p.BaselineDev, p.BaselineScores, nil)
	dev, test, weights := p.dbaSubsystems(v)
	dbaFused := p.fusePerDuration(dev, test, weights)

	f := &Fig3{Curves: make(map[float64]Fig3Curves), V: v}
	for _, dur := range corpus.Durations {
		f.Curves[dur] = Fig3Curves{
			Baseline: metrics.DET(metrics.PairTrialsToDetection(pairTrials(baseFused, p.TestLabels, p.TestIdx[dur]))),
			DBA:      metrics.DET(metrics.PairTrialsToDetection(pairTrials(dbaFused, p.TestLabels, p.TestIdx[dur]))),
		}
	}
	return f
}

// VoteAblation compares the paper's strict Eq. 13 vote criterion against a
// naive arg-max vote (every subsystem always votes its top language) at a
// fixed threshold — the design-choice ablation from DESIGN.md.
type VoteAblation struct {
	V                     int
	StrictSize, NaiveSize int
	StrictErrorPct        float64
	NaiveErrorPct         float64
}

// RunVoteAblation evaluates both criteria on the baseline vote scores.
func RunVoteAblation(p *Pipeline, v int) *VoteAblation {
	strictVotes := dba.CountVotes(p.VoteScores)
	strictSel := dba.Select(strictVotes, v)

	// Naive: arg-max votes regardless of sign or runner-up.
	m := len(p.TestLabels)
	naiveVotes := make([][]int, m)
	for j := range naiveVotes {
		naiveVotes[j] = make([]int, NumLangs)
	}
	for _, mat := range p.VoteScores {
		for j, row := range mat {
			best := 0
			for k, s := range row {
				if s > row[best] {
					best = k
				}
			}
			naiveVotes[j][best]++
		}
	}
	naiveSel := dba.Select(naiveVotes, v)
	return &VoteAblation{
		V:              v,
		StrictSize:     len(strictSel),
		NaiveSize:      len(naiveSel),
		StrictErrorPct: dba.SelectionErrorRate(strictSel, p.TestLabels) * 100,
		NaiveErrorPct:  dba.SelectionErrorRate(naiveSel, p.TestLabels) * 100,
	}
}
