package main

import (
	"fmt"
	"math"

	"repro/internal/cascade"
	"repro/internal/lattice"
	"repro/internal/ngram"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// expectation is what a correct daemon answers for one request body. A
// response must match it bit for bit: JSON float64 round trips are exact,
// so any difference is a real divergence.
type expectation struct {
	Best   string               `json:"best"`
	Scores map[string][]float64 `json:"scores,omitempty"`
	Fused  []float64            `json:"fused,omitempty"`
	// Exited marks a tier-1 cascade exit (Scores is then empty).
	Exited bool `json:"exited,omitempty"`
}

// oracle answers score requests in-process by calling each layer's public
// function in the order the daemon's request path does: cascade tier 1,
// per-front-end resolution (supervector copy and checks, or lattice
// parsing, n-gram supervector and TFLLR), SVM scoring, fusion. The traced
// pass times the same calls.
type oracle struct {
	model   *serve.Model
	spaces  []*ngram.Space
	cascade bool
	policy  cascade.Policy
}

func newOracle(m *serve.Model, cascadeOn bool) (*oracle, error) {
	// The daemon runs -cascade with no -cascade-margin: the calibrated
	// margins as they are.
	pol, err := cascade.ParsePolicy("")
	if err != nil {
		return nil, err
	}
	o := &oracle{model: m, cascade: cascadeOn, policy: pol}
	for _, fe := range m.Bundle.FrontEnds {
		o.spaces = append(o.spaces, ngram.NewSpace(fe.NumPhones, fe.Order))
	}
	return o, nil
}

// answer scores one decoded request. tr, when non-nil, records a span
// around each layer call.
func (o *oracle) answer(req *serve.ScoreRequest, tr *tracer) (expectation, serve.ScoreResult, error) {
	// Tier 1 runs on every input so its cost is measured on every
	// workload; only a cascade-enabled daemon acts on its decision.
	var fast *serve.ScoreResult
	tr.time("cascade.tier1", func() { _, fast = serve.CascadeTier1(o.model, o.policy, req, nil) })
	if o.cascade && fast != nil {
		return expectation{Best: fast.Best, Fused: fast.Fused, Exited: true}, *fast, nil
	}
	if len(req.FrontEnds) == 0 {
		return expectation{}, serve.ScoreResult{}, fmt.Errorf("request names no front-ends")
	}
	for name := range req.FrontEnds {
		if _, ok := o.model.FrontEndIndex(name); !ok {
			return expectation{}, serve.ScoreResult{}, fmt.Errorf("unknown front-end %q", name)
		}
	}
	scores := make(map[int][]float64, len(req.FrontEnds))
	for q := range o.model.Bundle.FrontEnds {
		fe := &o.model.Bundle.FrontEnds[q]
		in, ok := req.FrontEnds[fe.Name]
		if !ok {
			continue
		}
		var v *sparse.Vector
		var err error
		tr.time("serve.resolve", func() { v, err = o.resolve(q, in) })
		if err != nil {
			return expectation{}, serve.ScoreResult{}, fmt.Errorf("front-end %s: %w", fe.Name, err)
		}
		tr.time("score.fe", func() { scores[q] = fe.Scores(v) })
	}
	var res serve.ScoreResult
	tr.time("fuse", func() { res = serve.AssembleResult(o.model, req.ID, scores, nil) })
	return expectation{Best: res.Best, Scores: res.Scores, Fused: res.Fused}, res, nil
}

// resolve turns one front-end's wire input into the weight-space vector
// the SVMs score, with the checks the daemon applies to untrusted input.
func (o *oracle) resolve(q int, in serve.FrontEndInput) (*sparse.Vector, error) {
	fe := &o.model.Bundle.FrontEnds[q]
	space := o.spaces[q]
	var v *sparse.Vector
	switch {
	case in.Supervector != nil && in.Lattice != nil:
		return nil, fmt.Errorf("both a supervector and a lattice")
	case in.Supervector != nil:
		sv := in.Supervector
		if len(sv.Idx) != len(sv.Val) {
			return nil, fmt.Errorf("%d indices for %d values", len(sv.Idx), len(sv.Val))
		}
		v = &sparse.Vector{
			Idx: append([]int32(nil), sv.Idx...),
			Val: append([]float64(nil), sv.Val...),
		}
		if err := v.Validate(); err != nil {
			return nil, err
		}
		if n := len(v.Idx); n > 0 && int(v.Idx[n-1]) >= space.Dim() {
			return nil, fmt.Errorf("index %d outside the %d-dim space", v.Idx[n-1], space.Dim())
		}
		for _, x := range v.Val {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("non-finite supervector value")
			}
		}
		if !sv.Scaled && fe.TFLLR != nil {
			fe.TFLLR.Apply(v)
		}
	case in.Lattice != nil:
		slots := make([]lattice.SausageSlot, len(in.Lattice))
		for i, slot := range in.Lattice {
			for _, alt := range slot {
				slots[i] = append(slots[i], struct {
					Phone int
					Prob  float64
				}{Phone: alt.Phone, Prob: alt.Prob})
			}
		}
		l, err := lattice.ParseSausage(slots, fe.NumPhones)
		if err != nil {
			return nil, err
		}
		v = space.Supervector(l)
		if fe.TFLLR != nil {
			fe.TFLLR.Apply(v)
		}
	default:
		return nil, fmt.Errorf("empty input")
	}
	if fe.Proj != nil {
		v = fe.Proj.Apply(v)
	}
	return v, nil
}

// latticeSlots converts a decoded confusion network to wire slots: every
// edge of a sausage spans node i → i+1, and the wire carries its
// probability rather than its log score.
func latticeSlots(l *lattice.Lattice) ([][]serve.Slot, error) {
	n := 0
	for _, e := range l.Edges {
		if e.To != e.From+1 {
			return nil, fmt.Errorf("edge %d→%d is not a sausage slot", e.From, e.To)
		}
		if e.To > n {
			n = e.To
		}
	}
	slots := make([][]serve.Slot, n)
	for _, e := range l.Edges {
		slots[e.From] = append(slots[e.From], serve.Slot{Phone: e.Phone, Prob: math.Exp(e.LogScore)})
	}
	return slots, nil
}

// check compares a daemon response with its expectation and returns a
// description of the first difference, or "" when they agree bit for bit.
// A degraded result is a failure: every front-end is healthy here.
func check(resp *serve.ScoreResponse, want *expectation, cascadeOn bool) string {
	switch {
	case resp.Degraded:
		return fmt.Sprintf("degraded result (surviving %v)", resp.Surviving)
	case resp.Error != "":
		return "result error: " + resp.Error
	case cascadeOn && resp.Cascade == nil:
		return "no cascade outcome from a cascade-enabled daemon"
	}
	got := expectation{
		Best:   resp.Best,
		Scores: resp.Scores,
		Fused:  resp.Fused,
		Exited: resp.Cascade != nil && resp.Cascade.Exited,
	}
	return diff(&got, want)
}

// diff describes the first difference between two answers, or returns ""
// when they agree bit for bit.
func diff(got, want *expectation) string {
	switch {
	case got.Exited != want.Exited:
		return fmt.Sprintf("cascade exited=%v, want %v", got.Exited, want.Exited)
	case got.Best != want.Best:
		return fmt.Sprintf("best %q, want %q", got.Best, want.Best)
	case !sameBits(got.Fused, want.Fused):
		return "fused row differs"
	case len(got.Scores) != len(want.Scores):
		return fmt.Sprintf("%d front-end score rows, want %d", len(got.Scores), len(want.Scores))
	}
	for name, row := range want.Scores {
		if !sameBits(got.Scores[name], row) {
			return fmt.Sprintf("front-end %s scores differ", name)
		}
	}
	return ""
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
