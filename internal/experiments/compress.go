// Compressed serving: low-rank supervector projection + int8 scoring
// kernels (the -compress-eval / compressed -export-models path).
//
// The uncompressed serving footprint is dominated by the per-front-end
// one-vs-rest weight matrices — K=23 languages × the full supervector
// dimension (Σ ≈ 16.7k dims across the six front-ends) in float64. The
// compressed form replaces them with a rank-r projection fitted on the
// training supervectors (deflated power iteration on XᵀX, seeded and
// deterministic) plus a rank-space OVR set retrained on the projected
// training vectors. The projection basis, not the weights, then dominates
// the footprint (r×dim vs 23×r), so the basis itself is stored as
// symmetric per-direction int8, and the rank-space weights ship as a
// quantized kernel (svm.Quantized) with the float64 set dropped.
//
// Offline and online scoring see identical artifacts: training, scoring,
// and the exported bundle all project through the packed (serialized)
// basis, so a score computed here is the score cmd/lred serves.
package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/persist"
	"repro/internal/proj"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/synthlang"
	"repro/internal/vsm"
)

// CompressedSystem is one rank's operating point of a pipeline:
// per-front-end packed projections, rank-space int8 kernels, and the
// compressed score matrices over the pipeline's dev/test splits.
type CompressedSystem struct {
	Rank int

	// Projs are the exact float64 projections (for analysis); Packed the
	// serialized forms everything actually scores through.
	Projs  []*proj.Projection
	Packed []*proj.Packed
	Quants []*svm.Quantized

	// TestScores/DevScores are [q][utterance][language] over the pooled
	// test and dev orders, computed with the int8 kernels (quantization
	// loss included).
	TestScores [][][]float64
	DevScores  [][][]float64
}

// Compress fits rank-r projections on the training supervectors and
// builds the compressed system.
func (p *Pipeline) Compress(rank int) (*CompressedSystem, error) {
	projs, err := p.fitProjections(rank)
	if err != nil {
		return nil, err
	}
	return p.compressWith(projs, rank)
}

// fitProjections fits one rank-r projection per front-end on that
// front-end's (TFLLR-scaled) training supervectors. The fit is
// anchored on the front-end's full-dimension baseline SVM weight
// vectors — their span preserves the baseline's linear scores exactly,
// so a rank just past the language count serves at full-dimension
// accuracy — then supervised by the training language labels
// (between-class directions), with variance directions for any
// remaining rank. Deterministic in (pipeline seed, front-end order).
func (p *Pipeline) fitProjections(rank int) ([]*proj.Projection, error) {
	sp := obs.StartSpan("compress.fit-projections")
	defer sp.End()
	sp.SetAttr("rank", float64(rank))
	out := make([]*proj.Projection, len(p.FEs))
	errs := make([]error, len(p.FEs))
	parallel.For(len(p.FEs), func(q int) {
		anchors := make([][]float64, len(p.Baseline[q].Models))
		for c, m := range p.Baseline[q].Models {
			anchors[c] = m.W
		}
		out[q], errs[q] = proj.Fit(p.Data[q].Train, p.Data[q].Dim, proj.Config{
			Rank:       rank,
			Seed:       p.Seed,
			Anchors:    anchors,
			Labels:     p.TrainLabels,
			NumClasses: NumLangs,
		})
	})
	for q, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: projection for %s: %w", p.FEs[q].Name, err)
		}
	}
	return out, nil
}

// truncateProj cuts a fitted projection down to a smaller rank. The
// deflation order makes the leading directions of a rank-R fit identical
// to a direct rank-r fit (r < R), so one fit serves a whole rank sweep.
func truncateProj(pj *proj.Projection, rank int) *proj.Projection {
	if rank >= pj.Rank {
		return pj
	}
	return &proj.Projection{
		Dim:    pj.Dim,
		Rank:   rank,
		Basis:  pj.Basis[:rank*pj.Dim],
		Energy: pj.Energy[:rank],
	}
}

// compressWith builds the operating point from pre-fitted projections
// (truncating them to rank as needed): pack the basis, project
// train/dev/test through the packed basis, retrain the OVR set in rank
// space, quantize it, and score with the quantized kernel.
func (p *Pipeline) compressWith(projs []*proj.Projection, rank int) (*CompressedSystem, error) {
	sp := obs.StartSpan("compress.build")
	defer sp.End()
	sp.SetAttr("rank", float64(rank))

	nFE := len(p.FEs)
	cs := &CompressedSystem{
		Rank:   rank,
		Projs:  make([]*proj.Projection, nFE),
		Packed: make([]*proj.Packed, nFE),
		Quants: make([]*svm.Quantized, nFE),

		TestScores: make([][][]float64, nFE),
		DevScores:  make([][][]float64, nFE),
	}
	dev := p.Corpus.AllDev()
	errs := make([]error, nFE)
	parallel.For(nFE, func(q int) {
		pj := truncateProj(projs[q], rank)
		packed, err := pj.Pack()
		if err != nil {
			errs[q] = err
			return
		}
		trainR := vsm.ProjectVectors(packed, rank, p.Data[q].Train)
		ovr := svm.TrainOVR(trainR, p.TrainLabels, NumLangs, rank, p.SVMOptions)
		qk, err := ovr.Quantize()
		if err != nil {
			errs[q] = err
			return
		}
		cs.Projs[q] = pj
		cs.Packed[q] = packed
		cs.Quants[q] = qk
		cs.TestScores[q] = scoreMatrixQuant(qk, vsm.ProjectVectors(packed, rank, p.Data[q].Test))
		cs.DevScores[q] = scoreMatrixQuant(qk, vsm.ProjectVectors(packed, rank, p.Feats[q].Vectors(dev)))
	})
	for q, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: compress %s: %w", p.FEs[q].Name, err)
		}
	}
	return cs, nil
}

func scoreMatrixQuant(qk *svm.Quantized, xs []*sparse.Vector) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = qk.Scores(x)
	}
	return out
}

// BuildBundle assembles the compressed serving bundle: packed projection
// + rank-space kernel per front-end, with the trial-level fusion backend
// retrained on the compressed dev scores (the uncompressed backend's
// feature space is the uncompressed score distribution; reusing it would
// mis-calibrate). The tier-1 cascade is deliberately omitted — its phone
// LMs are the largest remaining artifact, and a compressed bundle's
// entire purpose is footprint.
func (cs *CompressedSystem) BuildBundle(p *Pipeline) *persist.Bundle {
	b := &persist.Bundle{
		Languages: append([]string(nil), synthlang.LanguageNames...),
	}
	for q, fe := range p.FEs {
		b.FrontEnds = append(b.FrontEnds, persist.FrontEndModel{
			Name:      fe.Name,
			NumPhones: fe.Set.Size,
			Order:     fe.Space.Order,
			TFLLR:     p.Feats[q].TF,
			Proj:      cs.Packed[q],
			Quant:     cs.Quants[q],
		})
	}
	b.Fusion = pooledDevBackend(cs.DevScores, p.DevLabels)
	return b
}

// ---- the compress-eval sweep (BENCH_compress.json) ----

// CompressPoint is one evaluated rank of the sweep.
type CompressPoint struct {
	Rank int `json:"rank"`
	// BundleBytes is the serialized (sealed) compressed bundle size;
	// SizeReduction the ratio vs the uncompressed serving bundle.
	BundleBytes   int     `json:"bundle_bytes"`
	SizeReduction float64 `json:"size_reduction"`
	// FusedEER maps duration tier ("30s"/"10s"/"3s") to the LDA-MMI
	// fused EER (%); DeltaEER is point minus baseline per tier.
	FusedEER       map[string]float64 `json:"fused_eer"`
	DeltaEER       map[string]float64 `json:"delta_eer"`
	MaxAbsDeltaEER float64            `json:"max_abs_delta_eer"`
}

// CompressBaseline is the uncompressed reference the sweep compares
// against: the full serving bundle (float64 weights, cascade included).
type CompressBaseline struct {
	BundleBytes int                `json:"bundle_bytes"`
	FusedEER    map[string]float64 `json:"fused_eer"`
}

// CompressReport is the committed BENCH_compress.json artifact: a pure
// function of scale and seed. Serving cost is measured by bench/run.sh
// and the kernels' `go test -bench` benchmarks, not here.
type CompressReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Scale     string `json:"scale"`
	Seed      uint64 `json:"seed"`

	Baseline CompressBaseline `json:"baseline"`
	Points   []CompressPoint  `json:"points"`
	// Headline is the selected operating point: the largest size
	// reduction among points whose every per-tier |ΔEER| is ≤ 0.5
	// absolute. Nil when no point qualifies.
	Headline         *CompressPoint `json:"headline,omitempty"`
	HeadlineCriteria string         `json:"headline_criteria"`
}

// DefaultCompressRanks is the standard sweep grid.
var DefaultCompressRanks = []int{8, 16, 24, 32}

func durKey(dur float64) string { return fmt.Sprintf("%gs", dur) }

// RunCompressEval evaluates each rank against the uncompressed
// baseline: serialized size and fused EER per duration tier.
func RunCompressEval(p *Pipeline, ranks []int) (*CompressReport, error) {
	sp := obs.StartSpan("compress-eval")
	defer sp.End()
	if len(ranks) == 0 {
		ranks = DefaultCompressRanks
	}
	rep := &CompressReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Scale:     p.Scale.String(),
		Seed:      p.Seed,
		HeadlineCriteria: "max size_reduction with per-tier |delta_eer| <= 0.5 (absolute EER " +
			"percentage points) vs the uncompressed fused baseline",
	}

	// Baseline: the real serving bundle and the uncompressed fused EER.
	sealed, err := persist.MarshalSealed(p.BuildBundle())
	if err != nil {
		return nil, err
	}
	rep.Baseline.BundleBytes = len(sealed)
	baseEER := make(map[string]float64)
	for dur, cell := range p.evalFused(p.fusePerDuration(p.BaselineDev, p.BaselineScores, nil)) {
		baseEER[durKey(dur)] = cell.EER
	}
	rep.Baseline.FusedEER = baseEER

	// One projection fit per front-end at the largest rank serves every
	// cell (deflation order nests the directions).
	maxRank := 0
	for _, r := range ranks {
		if r > maxRank {
			maxRank = r
		}
	}
	projs, err := p.fitProjections(maxRank)
	if err != nil {
		return nil, err
	}

	for _, rank := range ranks {
		cs, err := p.compressWith(projs, rank)
		if err != nil {
			return nil, err
		}
		pt, err := measurePoint(p, cs, rep.Baseline)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, *pt)
	}

	// Headline selection.
	for i := range rep.Points {
		pt := &rep.Points[i]
		if pt.MaxAbsDeltaEER > 0.5 {
			continue
		}
		if rep.Headline == nil || pt.SizeReduction > rep.Headline.SizeReduction {
			rep.Headline = pt
		}
	}
	return rep, nil
}

// measurePoint sizes and evaluates one compressed system.
func measurePoint(p *Pipeline, cs *CompressedSystem, base CompressBaseline) (*CompressPoint, error) {
	sealed, err := persist.MarshalSealed(cs.BuildBundle(p))
	if err != nil {
		return nil, err
	}
	pt := &CompressPoint{
		Rank:          cs.Rank,
		BundleBytes:   len(sealed),
		SizeReduction: float64(base.BundleBytes) / float64(len(sealed)),
		FusedEER:      make(map[string]float64),
		DeltaEER:      make(map[string]float64),
	}
	fused := p.fusePerDuration(cs.DevScores, cs.TestScores, nil)
	for dur, cell := range p.evalFused(fused) {
		k := durKey(dur)
		pt.FusedEER[k] = cell.EER
		pt.DeltaEER[k] = cell.EER - base.FusedEER[k]
		if d := pt.DeltaEER[k]; d > pt.MaxAbsDeltaEER {
			pt.MaxAbsDeltaEER = d
		} else if -d > pt.MaxAbsDeltaEER {
			pt.MaxAbsDeltaEER = -d
		}
	}
	return pt, nil
}
