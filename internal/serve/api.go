package serve

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fusion"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Wire types of the HTTP/JSON API. A request supplies, per front-end,
// either a phone lattice (confusion-network slots over that front-end's
// inventory, as its decoder would emit) or a pre-extracted supervector.
// Supervectors are the per-order-normalized expected n-gram counts of
// Eq. 2–3; the server applies the bundle's TFLLR scaling unless the client
// marks them as already scaled.

// Supervector is a sparse vector as (strictly increasing index, value)
// pairs.
type Supervector struct {
	Idx []int32   `json:"idx"`
	Val []float64 `json:"val"`
	// Scaled marks the vector as already TFLLR-scaled (e.g. replayed from
	// an offline extraction); the server then scores it as-is.
	Scaled bool `json:"scaled,omitempty"`
}

// Slot is one confusion-network alternative.
type Slot struct {
	Phone int     `json:"phone"`
	Prob  float64 `json:"prob"`
}

// FrontEndInput carries one front-end's evidence — exactly one of the two
// fields must be set.
type FrontEndInput struct {
	Supervector *Supervector `json:"supervector,omitempty"`
	Lattice     [][]Slot     `json:"lattice,omitempty"`
}

// ScoreRequest is the body of POST /v1/score.
type ScoreRequest struct {
	ID        string                   `json:"id,omitempty"`
	FrontEnds map[string]FrontEndInput `json:"frontends"`
}

// BatchRequest is the body of POST /v1/score/batch.
type BatchRequest struct {
	Utterances []ScoreRequest `json:"utterances"`
}

// ScoreResult is one utterance's outcome. Scores[fe][k] is front-end fe's
// decision value for language k (the row of the paper's score matrix F);
// Fused[k] is the LDA-MMI backend's log-odds when the bundle carries a
// fusion backend and the request covered every front-end.
//
// When a front-end fails mid-request (recognizer or SVM error/panic) the
// server degrades instead of failing the utterance: the broken front-end
// is dropped from the fusion input and the backend combination is
// rescaled over the survivors (see DESIGN.md, "Graceful degradation").
// Such results carry Degraded=true, the surviving front-end set, and the
// per-front-end errors.
type ScoreResult struct {
	ID     string               `json:"id,omitempty"`
	Best   string               `json:"best,omitempty"`
	Scores map[string][]float64 `json:"scores,omitempty"`
	Fused  []float64            `json:"fused,omitempty"`
	// Degraded marks a result computed without one or more of the
	// requested front-ends.
	Degraded bool `json:"degraded,omitempty"`
	// Surviving lists the front-ends that contributed scores; set only on
	// degraded results (otherwise every requested front-end survived).
	Surviving []string `json:"surviving,omitempty"`
	// FrontEndErrors maps each failed front-end to its error.
	FrontEndErrors map[string]string `json:"frontend_errors,omitempty"`
	Error          string            `json:"error,omitempty"`
	// Cascade reports the two-tier cascade decision when the server runs
	// with -cascade (absent otherwise). On a tier-1 exit, Fused carries
	// the calibrated tier-1 decision row (heavy fused-score scale) and
	// Scores is empty — no front-end battery ran.
	Cascade *CascadeOutcome `json:"cascade,omitempty"`
}

// ScoreResponse is the body of a successful POST /v1/score. TraceID is
// the request's W3C trace id (accepted from the caller's traceparent or
// minted by the server) — the key into /tracez and the access log.
type ScoreResponse struct {
	ModelVersion int64 `json:"model_version"`
	// ClusterGeneration is the fleet generation of the serving bundle
	// when the process is a cluster shard worker (see internal/cluster);
	// zero — and omitted — in standalone deployments.
	ClusterGeneration int64    `json:"cluster_generation,omitempty"`
	Languages         []string `json:"languages"`
	TraceID           string   `json:"trace_id,omitempty"`
	ScoreResult
}

// BatchResponse is the body of POST /v1/score/batch. Results align with
// the request's utterances; per-utterance failures carry an Error instead
// of scores.
//
// Degradation is accounted per utterance, never for the batch as a
// whole: each Results[i] carries its own Degraded flag, Surviving set,
// and FrontEndErrors (one utterance losing a front-end says nothing
// about its batch-mates). Degraded and DegradedCount summarize that
// per-utterance accounting — Degraded is true iff at least one
// utterance degraded — so callers that only need the tally (the cluster
// coordinator's per-shard accounting, dashboards) don't have to walk
// Results.
type BatchResponse struct {
	ModelVersion int64 `json:"model_version"`
	// ClusterGeneration is the fleet generation of the serving bundle
	// when the process is a cluster shard worker (see internal/cluster);
	// zero — and omitted — in standalone deployments.
	ClusterGeneration int64         `json:"cluster_generation,omitempty"`
	Languages         []string      `json:"languages"`
	TraceID           string        `json:"trace_id,omitempty"`
	Results           []ScoreResult `json:"results"`
	// Degraded is true when any utterance in Results degraded;
	// DegradedCount is how many did.
	Degraded      bool `json:"degraded,omitempty"`
	DegradedCount int  `json:"degraded_count,omitempty"`
}

// resolve validates u and builds its scoring vectors under a "resolve"
// span. Every role resolves each utterance tier 1 did not answer before
// its scoring step, so only resolved utterances reach a Pin's Score. Its
// errors are the client's (HTTP 400).
func resolve(m *Model, u *Utterance) (err error) {
	sp := u.Span.StartChild("resolve")
	u.Vectors, err = buildVectors(m, u.Req)
	sp.End()
	return err
}

// buildVectors resolves a request against a model: every named front-end
// must exist in the bundle, and each input becomes a TFLLR-scaled
// supervector ready for the SVM pass. The returned map is keyed by the
// bundle's front-end index. A routing model scores nothing, so there
// resolution only validates: no lattice supervector is built, and the
// map is nil.
func buildVectors(m *Model, req *ScoreRequest) (map[int]*sparse.Vector, error) {
	if len(req.FrontEnds) == 0 {
		return nil, fmt.Errorf("request names no front-ends")
	}
	out := make(map[int]*sparse.Vector, len(req.FrontEnds))
	for name, in := range req.FrontEnds {
		q, ok := m.feIndex[name]
		if !ok {
			return nil, fmt.Errorf("unknown front-end %q (model has %v)", name, m.Manifest.FrontEnds)
		}
		fe := &m.Bundle.FrontEnds[q]
		space := m.spaces[q]
		var v *sparse.Vector
		switch {
		case in.Supervector != nil && in.Lattice != nil:
			return nil, fmt.Errorf("front-end %q: supply a supervector or a lattice, not both", name)
		case in.Supervector != nil:
			sv := in.Supervector
			if len(sv.Idx) != len(sv.Val) {
				return nil, fmt.Errorf("front-end %q: %d indices for %d values", name, len(sv.Idx), len(sv.Val))
			}
			// The decoder gave the request its own exactly sized slices: the
			// vector adopts them, and TFLLR scales them in place. A routing
			// model holds no TFLLR, so the coordinator validates the slices
			// it forwards to its shards without touching them.
			v = &sparse.Vector{Idx: sv.Idx, Val: sv.Val}
			if err := v.Validate(); err != nil {
				return nil, fmt.Errorf("front-end %q: %v", name, err)
			}
			if n := len(v.Idx); n > 0 && int(v.Idx[n-1]) >= space.Dim() {
				return nil, fmt.Errorf("front-end %q: index %d outside the %d-dim space", name, v.Idx[n-1], space.Dim())
			}
			for _, x := range v.Val {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("front-end %q: non-finite supervector value", name)
				}
			}
			if !sv.Scaled && fe.TFLLR != nil {
				fe.TFLLR.Apply(v)
			}
		case in.Lattice != nil:
			l, err := latticeFromSlots(in.Lattice, fe.NumPhones)
			if err != nil {
				return nil, fmt.Errorf("front-end %q: %v", name, err)
			}
			if m.routing {
				continue
			}
			v = space.Supervector(l)
			if fe.TFLLR != nil {
				fe.TFLLR.Apply(v)
			}
		default:
			return nil, fmt.Errorf("front-end %q: empty input", name)
		}
		// Compressed bundles carry a low-rank projection: the TFLLR-scaled
		// raw-space supervector is mapped into the rank space here, once per
		// request, so the batch kernel only ever sees weight-space vectors.
		if fe.Proj != nil {
			v = fe.Proj.Apply(v)
		}
		out[q] = v
	}
	if m.routing {
		return nil, nil
	}
	return out, nil
}

// latticeFromSlots builds a confusion-network lattice from wire slots via
// lattice.ParseSausage, the error-returning parser for untrusted input
// (malformed lattices become 400s, never panics).
func latticeFromSlots(slots [][]Slot, numPhones int) (*lattice.Lattice, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("empty lattice")
	}
	ls := make([]lattice.SausageSlot, len(slots))
	for i, slot := range slots {
		for _, alt := range slot {
			ls[i] = append(ls[i], struct {
				Phone int
				Prob  float64
			}{Phone: alt.Phone, Prob: alt.Prob})
		}
	}
	return lattice.ParseSausage(ls, numPhones)
}

// obsDegraded counts every degraded fused result in the process,
// whatever the serving role (obs run reports and /metricsz). A traced
// standalone server keeps its rolling window — the RED "errors" of the
// serving path, since degradation is the failure mode scoring absorbs
// instead of surfacing as a 5xx.
var obsDegraded = obs.GetCounter("serve.score.degraded")

// AssembleResult turns one utterance's per-front-end score rows into the
// wire result: named scores, the fused row (when the bundle has a backend
// and the request covered every front-end — the backend's feature layout
// needs the complete battery), and the argmax language.
//
// feErrs carries front-ends that failed mid-request. When every requested
// front-end survived (feErrs empty) and the request covered the full
// battery, fusion is the backend's exact Score — bit-identical to the
// offline pipeline. When some failed, the result is marked Degraded and
// the fused row is computed by fusion.ScoreMasked over the survivors (the
// documented degraded-fusion contract in DESIGN.md). Both come from
// fusion.Decide, the decision row the offline pipeline fuses with too.
//
// Every serving role fuses through here: the coordinator's scoring step
// feeds a shard that missed its deadline in as a feErrs entry per
// front-end, which degrades the request precisely like a failed local
// front-end. Exported for the bench harness, which times fusion in
// process.
func AssembleResult(m *Model, id string, scores map[int][]float64, feErrs map[int]error) ScoreResult {
	res := ScoreResult{ID: id, Scores: make(map[string][]float64, len(scores))}
	rows := make([][]float64, len(m.Bundle.FrontEnds))
	for q, row := range scores {
		res.Scores[m.Bundle.FrontEnds[q].Name] = row
		rows[q] = row
	}
	if len(feErrs) > 0 {
		obsDegraded.Inc()
		res.Degraded = true
		res.FrontEndErrors = make(map[string]string, len(feErrs))
		for q, err := range feErrs {
			res.FrontEndErrors[m.Bundle.FrontEnds[q].Name] = err.Error()
		}
		for q := range scores {
			res.Surviving = append(res.Surviving, m.Bundle.FrontEnds[q].Name)
		}
		sort.Strings(res.Surviving)
	}
	// The backend applies when the request asked for the complete battery,
	// even if some front-ends later failed — the fused row then comes from
	// the masked (survivor-rescaled) combination. A partial request
	// decides on the mean of its rows.
	bk := m.Bundle.Fusion
	if len(scores)+len(feErrs) != len(rows) {
		bk = nil
	}
	decision := fusion.Decide(bk, rows)
	if bk != nil {
		res.Fused = decision
	}
	best := 0
	for k, v := range decision {
		if v > decision[best] {
			best = k
		}
	}
	res.Best = m.Bundle.Languages[best]
	return res
}
