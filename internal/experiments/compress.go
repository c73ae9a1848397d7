// Compressed serving: low-rank supervector projection + reduced-precision
// scoring kernels (the -compress-eval / compressed -export-models path).
//
// The uncompressed serving footprint is dominated by the per-front-end
// one-vs-rest weight matrices — K=23 languages × the full supervector
// dimension (Σ ≈ 16.7k dims across the six front-ends) in float64. The
// compressed form replaces them with a rank-r projection fitted on the
// training supervectors (deflated power iteration on XᵀX, seeded and
// deterministic) plus a rank-space OVR set retrained on the projected
// training vectors. The projection basis, not the weights, then dominates
// the footprint (r×dim vs 23×r), so the basis itself is stored at the
// chosen precision — float64, float32, or symmetric per-direction int8 —
// and for int8 bundles the rank-space weights ship as a quantized kernel
// (svm.Quantized) with the float64 set dropped.
//
// Offline and online scoring see identical artifacts: training, scoring,
// and the exported bundle all project through the packed (serialized)
// basis, so a score computed here is the score cmd/lred serves.
package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/persist"
	"repro/internal/proj"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/synthlang"
	"repro/internal/vsm"
)

// CompressedSystem is one (rank, precision) operating point of a
// pipeline: per-front-end packed projections, rank-space models, and the
// compressed score matrices over the pipeline's dev/test splits.
type CompressedSystem struct {
	Rank      int
	Precision svm.Precision

	// Projs are the exact float64 projections (for analysis); Packed the
	// serialized forms everything actually scores through.
	Projs  []*proj.Projection
	Packed []*proj.Packed
	// OVRs holds the rank-space float models (float64/float32 points);
	// Quants the int8 kernels (int8 points). Exactly one is non-nil per
	// front-end.
	OVRs   []*svm.OneVsRest
	Quants []*svm.Quantized

	// TestScores/DevScores are [q][utterance][language] over the pooled
	// test and dev orders, computed with the precision-dispatched kernel
	// (quantization loss included for int8).
	TestScores [][][]float64
	DevScores  [][][]float64
}

// Compress fits rank-r projections on the training supervectors and
// builds the compressed system at the given precision.
func (p *Pipeline) Compress(rank int, prec svm.Precision) (*CompressedSystem, error) {
	projs, err := p.fitProjections(rank)
	if err != nil {
		return nil, err
	}
	return p.compressWith(projs, rank, prec)
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
// (truncating them to rank as needed): pack the basis at the target
// precision, project train/dev/test through the packed basis, retrain
// the OVR set in rank space, and (for int8) quantize it.
func (p *Pipeline) compressWith(projs []*proj.Projection, rank int, prec svm.Precision) (*CompressedSystem, error) {
	sp := obs.StartSpan("compress.build")
	defer sp.End()
	sp.SetAttr("rank", float64(rank))
	sp.SetLabel("precision", prec.String())

	nFE := len(p.FEs)
	cs := &CompressedSystem{
		Rank: rank, Precision: prec,
		Projs:  make([]*proj.Projection, nFE),
		Packed: make([]*proj.Packed, nFE),
		OVRs:   make([]*svm.OneVsRest, nFE),
		Quants: make([]*svm.Quantized, nFE),

		TestScores: make([][][]float64, nFE),
		DevScores:  make([][][]float64, nFE),
	}
	dev := p.Corpus.AllDev()
	errs := make([]error, nFE)
	parallel.For(nFE, func(q int) {
		pj := truncateProj(projs[q], rank)
		packed, err := pj.Pack(prec)
		if err != nil {
			errs[q] = err
			return
		}
		trainR := vsm.ProjectVectors(packed, rank, p.Data[q].Train)
		testR := vsm.ProjectVectors(packed, rank, p.Data[q].Test)
		devR := vsm.ProjectVectors(packed, rank, p.Feats[q].Vectors(dev))
		ovr := svm.TrainOVR(trainR, p.TrainLabels, NumLangs, rank, p.SVMOptions)
		cs.Projs[q] = pj
		cs.Packed[q] = packed
		if prec == svm.Int8 {
			qk, err := ovr.Quantize()
			if err != nil {
				errs[q] = err
				return
			}
			cs.Quants[q] = qk
			cs.TestScores[q] = scoreMatrixQuant(qk, testR)
			cs.DevScores[q] = scoreMatrixQuant(qk, devR)
			return
		}
		cs.OVRs[q] = ovr
		cs.TestScores[q] = scoreMatrixAt(ovr, prec, testR)
		cs.DevScores[q] = scoreMatrixAt(ovr, prec, devR)
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

func scoreMatrixAt(o *svm.OneVsRest, prec svm.Precision, xs []*sparse.Vector) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		row := make([]float64, o.NumClasses)
		o.ScoresAtInto(prec, x, row)
		out[i] = row
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
		fem := persist.FrontEndModel{
			Name:      fe.Name,
			NumPhones: fe.Set.Size,
			Order:     fe.Space.Order,
			TFLLR:     p.Feats[q].TF,
			Proj:      cs.Packed[q],
			Precision: cs.Precision.String(),
		}
		if cs.Precision == svm.Int8 {
			fem.Quant = cs.Quants[q]
		} else {
			fem.OVR = cs.OVRs[q]
		}
		b.FrontEnds = append(b.FrontEnds, fem)
	}
	b.Fusion = pooledDevBackend(cs.DevScores, p.DevLabels)
	return b
}

// ExportModelsCompressed writes the compressed serving bundle + manifest
// to dir (the cmd/lre -export-models path with -compress-rank set).
func (p *Pipeline) ExportModelsCompressed(dir, gitDescribe string, rank int, prec svm.Precision) (*persist.Manifest, error) {
	sp := obs.StartSpan("export-models-compressed")
	defer sp.End()
	cs, err := p.Compress(rank, prec)
	if err != nil {
		return nil, err
	}
	m := persist.Manifest{
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		Seed:        p.Seed,
		Scale:       p.Scale.String(),
		GitDescribe: gitDescribe,
	}
	if err := persist.SaveBundle(dir, cs.BuildBundle(p), m); err != nil {
		return nil, err
	}
	_, out, err := persist.LoadBundle(dir)
	return out, err
}

// ---- the compress-eval sweep (BENCH_compress.json) ----

// CompressPoint is one measured (rank, precision) cell of the sweep.
type CompressPoint struct {
	Rank      int    `json:"rank"`
	Precision string `json:"precision"`
	// BundleBytes is the serialized (sealed) compressed bundle size;
	// SizeReduction the ratio vs the uncompressed serving bundle.
	BundleBytes   int     `json:"bundle_bytes"`
	SizeReduction float64 `json:"size_reduction"`
	// LoadMs is the min-of-3 bundle decode time (UnmarshalSealed).
	LoadMs float64 `json:"load_ms"`
	// KernelUttPerSec is the batch-scoring stage: the serialized
	// rank-space kernel over prepared (projected) vectors — exactly the
	// stage lred's micro-batcher runs in its critical section, and the
	// same protocol as BENCH_hotpath's batch-score entry. Speedup is its
	// ratio vs the baseline's serialized full-dimension kernel — the
	// serialization bottleneck both systems contend on. The projection
	// is NOT in this stage: in this codebase it is applied during vector
	// building (serve buildVectors / vsm.Extract), on the handler path
	// where lattice decode + n-gram extraction dominate it by orders of
	// magnitude.
	KernelUttPerSec float64 `json:"kernel_utt_per_sec"`
	Speedup         float64 `json:"speedup"`
	// ThroughputUttPerSec is the serving-topology companion number: the
	// projection stage at handler concurrency (parallel.ForPool, as
	// lred's buildVectors applies it per request) followed by the
	// serialized rank-space kernel. SequentialUttPerSec is the
	// single-thread number (projection + kernel back to back) — honest
	// about total per-utterance model work: at rank r the projection
	// alone costs ~r/23 of the baseline kernel pass, so the sequential
	// number *drops* below baseline once r approaches the class count
	// even while the batcher stage collapses by ~nnz/r.
	ThroughputUttPerSec float64 `json:"throughput_utt_per_sec"`
	SequentialUttPerSec float64 `json:"sequential_utt_per_sec"`
	// FusedEER maps duration tier ("30s"/"10s"/"3s") to the LDA-MMI
	// fused EER (%); DeltaEER is point minus baseline per tier.
	FusedEER       map[string]float64 `json:"fused_eer"`
	DeltaEER       map[string]float64 `json:"delta_eer"`
	MaxAbsDeltaEER float64            `json:"max_abs_delta_eer"`
}

// CompressBaseline is the uncompressed reference the sweep compares
// against: the full serving bundle (float64 weights, cascade included).
// Its throughput is the serialized full-dimension OVR kernel over
// prepared CSR test vectors — the micro-batcher's critical section,
// which is the denominator of every point's Speedup. The baseline has
// no per-utterance model work outside that stage (vector building is
// common to both paths, and its projection is the identity).
type CompressBaseline struct {
	BundleBytes         int                `json:"bundle_bytes"`
	LoadMs              float64            `json:"load_ms"`
	ThroughputUttPerSec float64            `json:"throughput_utt_per_sec"`
	FusedEER            map[string]float64 `json:"fused_eer"`
}

// CompressReport is the committed BENCH_compress.json artifact.
type CompressReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Scale     string `json:"scale"`
	Seed      uint64 `json:"seed"`

	Baseline CompressBaseline `json:"baseline"`
	Points   []CompressPoint  `json:"points"`
	// Headline is the selected operating point: the largest size
	// reduction among points whose batch-scoring (batcher-stage) Speedup
	// is ≥ 1.3 and every per-tier |ΔEER| ≤ 0.5 absolute. Nil when no
	// point qualifies.
	Headline         *CompressPoint `json:"headline,omitempty"`
	HeadlineCriteria string         `json:"headline_criteria"`
}

// DefaultCompressRanks and DefaultCompressPrecisions define the standard
// sweep grid.
var (
	DefaultCompressRanks      = []int{8, 16, 24, 32}
	DefaultCompressPrecisions = []svm.Precision{svm.Float64, svm.Float32, svm.Int8}
)

func durKey(dur float64) string { return fmt.Sprintf("%gs", dur) }

// RunCompressEval measures the full rank × precision grid against the
// uncompressed baseline: serialized size, load time, batch-scoring
// throughput (min-of-3 testing.Benchmark runs), and fused EER per duration
// tier.
func RunCompressEval(p *Pipeline, ranks []int, precs []svm.Precision) (*CompressReport, error) {
	sp := obs.StartSpan("compress-eval")
	defer sp.End()
	if len(ranks) == 0 {
		ranks = DefaultCompressRanks
	}
	if len(precs) == 0 {
		precs = DefaultCompressPrecisions
	}
	rep := &CompressReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Scale:     p.Scale.String(),
		Seed:      p.Seed,
		HeadlineCriteria: "max size_reduction with batch-scoring (batcher-stage kernel) speedup >= 1.3 " +
			"and per-tier |delta_eer| <= 0.5 (absolute EER percentage points) vs the uncompressed " +
			"fused baseline; throughput_utt_per_sec / sequential_utt_per_sec report the end-to-end " +
			"projection+kernel cost alongside",
	}

	// Baseline: the real serving bundle, the exact float64 kernel, the
	// uncompressed fused EER.
	baseBundle := p.BuildBundle()
	sealed, err := persist.MarshalSealed(baseBundle)
	if err != nil {
		return nil, err
	}
	rep.Baseline.BundleBytes = len(sealed)
	rep.Baseline.LoadMs = loadMs(sealed)
	nTest := len(p.TestLabels)
	baseNs := bestOf3(func(b *testing.B) {
		out := make([]float64, NumLangs)
		for n := 0; n < b.N; n++ {
			for q := range p.Baseline {
				for _, x := range p.Data[q].Test {
					p.Baseline[q].ScoresInto(x, out)
				}
			}
		}
	})
	rep.Baseline.ThroughputUttPerSec = uttPerSec(baseNs, nTest)
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
		for _, prec := range precs {
			cs, err := p.compressWith(projs, rank, prec)
			if err != nil {
				return nil, err
			}
			pt, err := measurePoint(p, cs, rep.Baseline)
			if err != nil {
				return nil, err
			}
			rep.Points = append(rep.Points, *pt)
		}
	}

	// Headline selection.
	for i := range rep.Points {
		pt := &rep.Points[i]
		if pt.Speedup < 1.3 || pt.MaxAbsDeltaEER > 0.5 {
			continue
		}
		if rep.Headline == nil || pt.SizeReduction > rep.Headline.SizeReduction {
			rep.Headline = pt
		}
	}
	return rep, nil
}

// measurePoint sizes, times, and evaluates one compressed system.
func measurePoint(p *Pipeline, cs *CompressedSystem, base CompressBaseline) (*CompressPoint, error) {
	bundle := cs.BuildBundle(p)
	sealed, err := persist.MarshalSealed(bundle)
	if err != nil {
		return nil, err
	}
	pt := &CompressPoint{
		Rank:          cs.Rank,
		Precision:     cs.Precision.String(),
		BundleBytes:   len(sealed),
		SizeReduction: float64(base.BundleBytes) / float64(len(sealed)),
		LoadMs:        loadMs(sealed),
		FusedEER:      make(map[string]float64),
		DeltaEER:      make(map[string]float64),
	}

	// Throughput, three protocols over the same battery:
	//
	//  1. kernel only — the serialized batcher-stage scoring kernel over
	//     prepared (projected) vectors. This is the batch-scoring number
	//     Speedup is computed from, against the baseline's serialized
	//     full-dimension kernel over prepared CSR vectors.
	//  2. serving topology — the projection stage at handler concurrency
	//     (parallel.ForPool, as lred's buildVectors runs it per request)
	//     followed by the serialized rank-space kernel.
	//  3. sequential — projection + kernel single-threaded; honest about
	//     total per-utterance work (a rank-r projection alone costs
	//     ~r/23 of the baseline kernel pass).
	rank := cs.Rank
	nTest := len(p.TestLabels)
	projected := make([][]float64, len(cs.Packed))
	for q := range projected {
		projected[q] = make([]float64, len(p.Data[q].Test)*rank)
	}
	project := func(pool bool) {
		for q := range cs.Packed {
			pk, rows := cs.Packed[q], projected[q]
			if pool {
				parallel.ForPool("compress.bench.project", len(p.Data[q].Test), func(j int) {
					pk.ApplyInto(p.Data[q].Test[j], rows[j*rank:(j+1)*rank])
				})
			} else {
				for j, x := range p.Data[q].Test {
					pk.ApplyInto(x, rows[j*rank:(j+1)*rank])
				}
			}
		}
	}
	idxs := make([]int32, rank)
	for d := range idxs {
		idxs[d] = int32(d)
	}
	kernel := func(pv *sparse.Vector, out []float64) {
		for q := range cs.Packed {
			rows := projected[q]
			for j := range p.Data[q].Test {
				pv.Val = rows[j*rank : (j+1)*rank]
				if cs.Quants[q] != nil {
					cs.Quants[q].ScoresInto(pv, out)
				} else {
					cs.OVRs[q].ScoresAtInto(cs.Precision, pv, out)
				}
			}
		}
	}
	project(false) // prepare projected vectors for the kernel-only run
	kern := bestOf3(func(b *testing.B) {
		pv := &sparse.Vector{Idx: idxs}
		out := make([]float64, NumLangs)
		for n := 0; n < b.N; n++ {
			kernel(pv, out)
		}
	})
	pt.KernelUttPerSec = uttPerSec(kern, nTest)
	if base.ThroughputUttPerSec > 0 {
		pt.Speedup = pt.KernelUttPerSec / base.ThroughputUttPerSec
	}
	serving := bestOf3(func(b *testing.B) {
		pv := &sparse.Vector{Idx: idxs}
		out := make([]float64, NumLangs)
		for n := 0; n < b.N; n++ {
			project(true)
			kernel(pv, out)
		}
	})
	pt.ThroughputUttPerSec = uttPerSec(serving, nTest)
	seq := bestOf3(func(b *testing.B) {
		pv := &sparse.Vector{Idx: idxs}
		out := make([]float64, NumLangs)
		for n := 0; n < b.N; n++ {
			project(false)
			kernel(pv, out)
		}
	})
	pt.SequentialUttPerSec = uttPerSec(seq, nTest)

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

func loadMs(sealed []byte) float64 {
	res := bestOf3(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			var bb persist.Bundle
			if err := persist.UnmarshalSealed(sealed, &bb); err != nil {
				b.Fatal(err)
			}
		}
	})
	return nsPerOp(res) / 1e6
}

func uttPerSec(res testing.BenchmarkResult, nUtt int) float64 {
	ns := nsPerOp(res)
	if ns <= 0 {
		return 0
	}
	return float64(nUtt) / (ns / 1e9)
}

// bestOf3 runs f under testing.Benchmark three times and keeps the run
// with the lowest ns/op: wall time on a busy box is noisy, and the
// minimum strips scheduler interference from a CPU-bound measurement.
func bestOf3(f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 0; i < 2; i++ {
		if r := testing.Benchmark(f); r.N > 0 && (best.N == 0 || nsPerOp(r) < nsPerOp(best)) {
			best = r
		}
	}
	return best
}

func nsPerOp(res testing.BenchmarkResult) float64 {
	if res.N == 0 {
		return 0
	}
	return float64(res.T.Nanoseconds()) / float64(res.N)
}
