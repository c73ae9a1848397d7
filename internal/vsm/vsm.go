// Package vsm implements the vector-space-modeling layer of PPRVSM
// (paper Section 2.3): per-front-end supervector extraction with TFLLR
// scaling, one-versus-rest SVM language models (the model matrix M of
// Eq. 7), and score matrices (F of Eq. 8–9).
//
// Extraction is the expensive stage (decoding dominates the paper's cost
// analysis, Section 5.4), so each (front-end, utterance) pair is decoded
// exactly once and cached; both the baseline pass and every DBA retraining
// pass reuse the cached supervectors, which is why DBA's overhead is only
// the extra SVM training — the property behind the paper's Eq. 19. Kept
// 1-best strings come from the same lattices (ExtractOptions.KeepBestPath).
package vsm

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/ngram"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// Features caches one front-end's supervectors for an entire corpus.
type Features struct {
	FE *frontend.FrontEnd
	// TF is nil when TFLLR scaling is disabled (ablation).
	TF *ngram.TFLLR
	// Quarantined lists utterances whose decode produced a corrupt
	// lattice; each carries an empty supervector in the cache (it scores
	// as bias-only) so downstream shapes stay intact. Empty on healthy
	// runs.
	Quarantined []QuarantinedUtterance
	vectors     map[int]*sparse.Vector
	// best maps an item ID to its kept 1-best phone string; nil unless
	// extraction kept them.
	best map[int][]int
}

// QuarantinedUtterance records one utterance skipped during extraction.
type QuarantinedUtterance struct {
	ItemID int
	Err    string
}

// DefaultMaxQuarantineFrac is the fraction of corrupt utterances a
// front-end's extraction tolerates before the phase fails outright: a
// handful of bad lattices is data damage worth surviving, a third of the
// corpus is a broken decoder worth failing loudly on.
const DefaultMaxQuarantineFrac = 0.05

// tfllrFloor is the TFLLR background probability floor.
const tfllrFloor = 1e-5

// ExtractOptions controls feature extraction.
type ExtractOptions struct {
	Seed uint64
	// DisableTFLLR turns off background scaling (raw probabilities), for
	// the ablation bench.
	DisableTFLLR bool
	// KeepBestPath keeps each utterance's 1-best phone string from the
	// lattice its supervector came from (Features.BestPaths); a
	// quarantined utterance keeps an empty one.
	KeepBestPath bool
}

// ExtractChecked is Extract with per-utterance quarantine: a corrupt
// lattice (a lattice.ParseSausage error, organic or injected) skips that
// utterance — it keeps an empty supervector, is logged, counted
// (extract.quarantined), and reported on Features.Quarantined — instead
// of aborting the whole phase. If the quarantine rate exceeds
// DefaultMaxQuarantineFrac the phase fails with an error naming the first
// offender (cap-and-fail: mass corruption means a broken decoder, not
// salvageable data).
func ExtractChecked(fe *frontend.FrontEnd, c *corpus.Corpus, opt ExtractOptions) (*Features, error) {
	root := rng.New(opt.Seed).SplitString("extract:" + fe.Name)
	f := &Features{FE: fe, vectors: make(map[int]*sparse.Vector)}

	splits := []*corpus.Split{c.Train}
	for _, dur := range corpus.Durations {
		splits = append(splits, c.Dev[dur], c.Test[dur])
	}
	// Flatten items for parallel decoding.
	var items []*corpus.Item
	for _, s := range splits {
		items = append(items, s.Items...)
	}
	// The decode pool is the pipeline's dominant cost (Table 5); per-worker
	// busy time and task latencies land in the obs registry under
	// "pool.decode.*", making utilization and straggler utterances visible
	// in run reports.
	vecs := make([]*sparse.Vector, len(items))
	decodeErrs := make([]error, len(items))
	var paths [][]int
	if opt.KeepBestPath {
		paths = make([][]int, len(items))
		f.best = make(map[int][]int, len(items))
	}
	parallel.ForPool("decode", len(items), func(i int) {
		it := items[i]
		r := root.Split(uint64(it.ID))
		lat, err := fe.DecodeChecked(r, it.U)
		if err != nil {
			decodeErrs[i] = err
			vecs[i] = sparse.New(0)
			return
		}
		vecs[i] = fe.Space.Supervector(lat)
		if paths != nil {
			paths[i], _ = lat.BestPath()
		}
	})
	for i, err := range decodeErrs {
		if err != nil {
			f.Quarantined = append(f.Quarantined, QuarantinedUtterance{ItemID: items[i].ID, Err: err.Error()})
		}
	}
	if n := len(f.Quarantined); n > 0 {
		obs.Add("extract.quarantined", int64(n))
		first := f.Quarantined[0]
		log.Printf("vsm: front-end %s: quarantined %d/%d utterances (first: item %d: %s)",
			fe.Name, n, len(items), first.ItemID, first.Err)
		if float64(n) > DefaultMaxQuarantineFrac*float64(len(items)) {
			obs.Inc("extract.quarantine_overflow")
			return nil, fmt.Errorf("vsm: front-end %s: %d/%d utterances (%.1f%%) quarantined, above the %.1f%% cap; first: item %d: %s",
				fe.Name, n, len(items), 100*float64(n)/float64(len(items)), 100*DefaultMaxQuarantineFrac, first.ItemID, first.Err)
		}
	}
	// The cache keeps each supervector as the accumulator built it, sized
	// to its nonzeros: a repack into one CSR arena would hold every
	// front-end's features twice while it ran, for no scoring gain. Kept
	// 1-best strings are copied into one exactly sized arena: left as
	// thousands of small blocks among the phase's garbage they raised the
	// offline job's peak RSS by ~5%.
	phones := 0
	for _, path := range paths {
		phones += len(path)
	}
	arena := make([]int, 0, phones)
	var nnz int64
	for i, it := range items {
		f.vectors[it.ID] = vecs[i]
		nnz += int64(vecs[i].NNZ())
		if paths != nil {
			arena = append(arena, paths[i]...)
			f.best[it.ID] = arena[len(arena)-len(paths[i]) : len(arena) : len(arena)]
		}
	}
	obs.Add("supervector.count", int64(len(items)))
	obs.Add("supervector.nnz", nnz)
	obs.SetGauge("supervector.dim."+fe.Name, float64(fe.Space.Dim()))

	if !opt.DisableTFLLR {
		trainVecs := make([]*sparse.Vector, 0, c.Train.Len())
		for _, it := range c.Train.Items {
			trainVecs = append(trainVecs, f.vectors[it.ID])
		}
		f.TF = ngram.EstimateTFLLR(trainVecs, fe.Space.Dim(), tfllrFloor)
		for _, v := range f.vectors {
			f.TF.Apply(v)
		}
	}
	return f, nil
}

// FeaturesSnapshot is the serializable form of a Features cache — what
// the checkpoint store persists per front-end after the extraction
// phase. Rows hold the post-TFLLR supervectors in ascending-item-ID
// order; float64 values round-trip through gob bit-exactly, which is
// what makes resumed runs bit-identical to uninterrupted ones.
type FeaturesSnapshot struct {
	FEName      string
	Dim         int
	TF          *ngram.TFLLR
	IDs         []int
	Rows        []*sparse.Vector
	Quarantined []QuarantinedUtterance
	BestPaths   [][]int // kept 1-best strings aligned with IDs, or none
}

// Snapshot captures the cache for checkpointing.
func (f *Features) Snapshot() *FeaturesSnapshot {
	ids := make([]int, 0, len(f.vectors))
	for id := range f.vectors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows := make([]*sparse.Vector, len(ids))
	var paths [][]int
	for i, id := range ids {
		rows[i] = f.vectors[id]
		if path, ok := f.best[id]; ok {
			paths = append(paths, path)
		}
	}
	return &FeaturesSnapshot{
		FEName:      f.FE.Name,
		Dim:         f.Dim(),
		TF:          f.TF,
		IDs:         ids,
		Rows:        rows,
		Quarantined: f.Quarantined,
		BestPaths:   paths,
	}
}

// RestoreFeatures rebuilds a Features cache from a snapshot, keeping the
// snapshot's rows as the cached vectors. The snapshot must belong to a
// front-end with the same name and supervector dimension, and carry
// either no 1-best paths or one per ID; item coverage is the caller's
// check (Has).
func RestoreFeatures(fe *frontend.FrontEnd, snap *FeaturesSnapshot) (*Features, error) {
	if snap.FEName != fe.Name {
		return nil, fmt.Errorf("vsm: snapshot belongs to front-end %q, not %q", snap.FEName, fe.Name)
	}
	if snap.Dim != fe.Space.Dim() {
		return nil, fmt.Errorf("vsm: snapshot dimension %d, front-end %q has %d", snap.Dim, fe.Name, fe.Space.Dim())
	}
	if len(snap.IDs) != len(snap.Rows) {
		return nil, fmt.Errorf("vsm: snapshot has %d IDs but %d rows", len(snap.IDs), len(snap.Rows))
	}
	if len(snap.BestPaths) != 0 && len(snap.BestPaths) != len(snap.IDs) {
		return nil, fmt.Errorf("vsm: snapshot has %d IDs but %d 1-best paths", len(snap.IDs), len(snap.BestPaths))
	}
	f := &Features{
		FE:          fe,
		TF:          snap.TF,
		Quarantined: snap.Quarantined,
		vectors:     make(map[int]*sparse.Vector, len(snap.IDs)),
	}
	for i, id := range snap.IDs {
		f.vectors[id] = snap.Rows[i]
	}
	if len(snap.BestPaths) != 0 {
		f.best = make(map[int][]int, len(snap.IDs))
		for i, id := range snap.IDs {
			f.best[id] = snap.BestPaths[i]
		}
	}
	return f, nil
}

// Has reports whether the cache holds a supervector for a corpus item ID.
func (f *Features) Has(id int) bool {
	_, ok := f.vectors[id]
	return ok
}

// Vector returns the cached supervector for a corpus item ID.
func (f *Features) Vector(id int) *sparse.Vector {
	v, ok := f.vectors[id]
	if !ok {
		panic(fmt.Sprintf("vsm: no cached vector for item %d", id))
	}
	return v
}

// Vectors returns the supervectors of a split in item order.
func (f *Features) Vectors(s *corpus.Split) []*sparse.Vector {
	out := make([]*sparse.Vector, s.Len())
	for i, it := range s.Items {
		out[i] = f.Vector(it.ID)
	}
	return out
}

// BestPaths returns the kept 1-best phone strings of a split in item
// order; it panics for an item whose string extraction did not keep.
func (f *Features) BestPaths(s *corpus.Split) [][]int {
	out := make([][]int, s.Len())
	for i, it := range s.Items {
		path, ok := f.best[it.ID]
		if !ok {
			panic(fmt.Sprintf("vsm: no kept 1-best path for item %d", it.ID))
		}
		out[i] = path
	}
	return out
}

// Projector is anything that maps a raw-space supervector into a
// fixed-rank output row — proj.Projection (exact float64 basis) and
// proj.Packed (the serialized float64/float32/int8 forms) both qualify.
type Projector interface {
	ApplyInto(x *sparse.Vector, out []float64)
}

// ProjectVectors maps supervectors into a projection's rank space in
// parallel and repacks the results into one CSR arena: FromDense grows
// its rows by appending, so they carry slack capacity until the repack
// sizes them to their nonzeros. The inputs are not modified.
func ProjectVectors(p Projector, rank int, xs []*sparse.Vector) []*sparse.Vector {
	rows := make([]*sparse.Vector, len(xs))
	parallel.ForPool("project", len(xs), func(i int) {
		out := make([]float64, rank)
		p.ApplyInto(xs[i], out)
		rows[i] = sparse.FromDense(out)
	})
	mat := sparse.MatrixFromRows(rows)
	for i := range rows {
		rows[i] = mat.Row(i)
	}
	return rows
}

// Dim returns the supervector dimension of the front-end.
func (f *Features) Dim() int { return f.FE.Space.Dim() }

// DefaultSVMOptions returns the solver settings used across the
// experiments: LIBLINEAR-like defaults with the positive class upweighted
// to counter the 1-vs-22 imbalance.
func DefaultSVMOptions() svm.Options {
	opt := svm.DefaultOptions()
	opt.C = 1
	opt.PositiveWeight = 4
	opt.MaxIters = 120
	opt.Eps = 0.02
	return opt
}
