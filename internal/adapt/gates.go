package adapt

import (
	"fmt"
	"math"

	"repro/internal/fusion"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/sparse"
)

// The three promotion gates. Each is a pure function of frozen data
// (sidecar vectors, pinned scores) and bundles — no registry or clock —
// so the same inputs always reach the same verdict.

// scoreRows scores a set of weight-space vectors with one bundle
// front-end, returning one row per vector.
func scoreRows(b *persist.Bundle, q int, vecs []*sparse.Vector) [][]float64 {
	fe := &b.FrontEnds[q]
	out := make([][]float64, len(vecs))
	for j, v := range vecs {
		out[j] = fe.Scores(v)
	}
	return out
}

// refereeScores computes a bundle's [q][j][k] score matrices over the
// frozen referee set (the first NumReferee holdout vectors).
func refereeScores(b *persist.Bundle, set *Set) [][][]float64 {
	nRef := set.NumReferee()
	out := make([][][]float64, len(set.FrontEnds))
	for q := range set.FrontEnds {
		out[q] = scoreRows(b, q, set.FrontEnds[q].Holdout[:nRef])
	}
	return out
}

// canaryCompare checks a disk-loaded candidate against its in-memory
// twin (bit-exact — any difference means the persisted artifact is not
// what the trainer built) and bounds its drift from the pinned referee
// scores. Returns the largest absolute drift.
func canaryCompare(mem, disk [][][]float64, set *Set, tol float64) (maxDrift float64, err error) {
	for q := range set.FrontEnds {
		pinned := set.FrontEnds[q].RefereeScores
		for j := range disk[q] {
			for k, v := range disk[q][j] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return maxDrift, fmt.Errorf("adapt: canary: front-end %q referee %d scores non-finite", set.FrontEnds[q].Name, j)
				}
				if mem != nil && v != mem[q][j][k] {
					return maxDrift, fmt.Errorf("adapt: canary: front-end %q referee %d differs from the in-memory candidate (torn or mis-encoded bundle)",
						set.FrontEnds[q].Name, j)
				}
				if d := math.Abs(v - pinned[j][k]); d > maxDrift {
					maxDrift = d
				}
			}
		}
	}
	if maxDrift > tol {
		return maxDrift, fmt.Errorf("adapt: canary: referee drift %.4f exceeds tolerance %.4f", maxDrift, tol)
	}
	return maxDrift, nil
}

// holdoutEER evaluates a bundle's fused EER (fraction, not percent) on
// the sidecar's frozen holdout split — the same pooled pair-trial EER
// the offline tables report, over the serving path's decision rows
// (fusion.Decide).
func holdoutEER(b *persist.Bundle, set *Set) float64 {
	rowBufs := make([][][]float64, len(set.FrontEnds))
	for q := range set.FrontEnds {
		rowBufs[q] = scoreRows(b, q, set.FrontEnds[q].Holdout)
	}
	var pairs []metrics.PairTrial
	for j, dec := range fusion.DecideAll(b.Fusion, rowBufs) {
		for k, s := range dec {
			pairs = append(pairs, metrics.PairTrial{Model: k, True: set.HoldoutLabels[j], Score: s})
		}
	}
	return metrics.EER(metrics.PairTrialsToDetection(pairs))
}

// shadowDivergence rescored the shadow-sampled live slice with the
// candidate and measures the mean absolute fused-score divergence from
// what was actually served (the observations' stored rows, fused with
// the same backend). Zero divergence over zero samples — a cold shadow
// ring passes the gate vacuously (reported via the sampled count).
func shadowDivergence(cand *persist.Bundle, obss []Observation) (mean float64, sampled int) {
	if len(obss) == 0 {
		return 0, 0
	}
	var total float64
	for _, o := range obss {
		candRows := make([][]float64, len(cand.FrontEnds))
		for q := range cand.FrontEnds {
			candRows[q] = cand.FrontEnds[q].Scores(o.Vectors[q])
		}
		cd := fusion.Decide(cand.Fusion, candRows)
		sd := fusion.Decide(cand.Fusion, o.Scores)
		var utt float64
		for k := range cd {
			utt += math.Abs(cd[k] - sd[k])
		}
		total += utt / float64(len(cd))
	}
	return total / float64(len(obss)), len(obss)
}
