package serve

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// CascadeConfig opts the server into the two-tier scoring cascade
// (DESIGN.md "Cascade serving"): requests whose tier-1 PRLM margin clears
// the bundle's calibrated per-tier bar are answered from the cheap path
// without touching the supervector/SVM machinery; everything else
// escalates to the full battery unchanged.
type CascadeConfig struct {
	// Enabled turns the fast path on. With a bundle that carries no
	// cascade model every request escalates (reason "no_cascade_model") —
	// enabling the cascade never makes a deployment less available.
	Enabled bool
	// Margin is the threshold-offset policy spec (cascade.ParsePolicy): a
	// bare offset ("0.05", "-inf", "+inf") or per-tier overrides
	// ("default=0;30s=0.1"). Empty means offset 0 — the calibrated
	// per-tier margins as-is. "-inf" escalates everything (bit-identical
	// to a cascade-less server); "+inf" answers everything at tier 1.
	Margin string
}

// Serve-layer escalation reasons, complementing the policy's
// cascade.ReasonHighMargin/ReasonLowMargin: requests tier 1 never scored.
const (
	// ReasonNoCascadeModel: the loaded bundle carries no cascade model.
	ReasonNoCascadeModel = "no_cascade_model"
	// ReasonNoTier1Input: the request has no lattice for the cascade's
	// designated front-end (supervector-only or absent), so there is no
	// 1-best to score.
	ReasonNoTier1Input = "no_tier1_input"
	// ReasonTier1Fault: tier 1 errored or panicked; the request degraded
	// to a transparent escalation (never a 5xx).
	ReasonTier1Fault = "tier1_fault"
)

// CascadeOutcome reports the cascade decision on a ScoreResult when the
// server runs with the cascade enabled (absent otherwise).
type CascadeOutcome struct {
	// Exited is true when tier 1 answered the request.
	Exited bool `json:"exited"`
	// Tier is the duration tier the policy assigned (by 1-best length);
	// empty when tier 1 never scored the request.
	Tier string `json:"tier,omitempty"`
	// Reason is the decision code: high_margin, low_margin,
	// no_cascade_model, no_tier1_input, or tier1_fault.
	Reason string `json:"reason"`
	// Margin is the tier-1 best-vs-second-best LLR gap (zero when tier 1
	// never scored).
	Margin float64 `json:"margin,omitempty"`
}

// cascadeMetrics are a server's cascade counters and per-path latency
// histograms, under its namespace (serve.cascade.* standalone,
// cluster.cascade.* at the coordinator). Exit/escalate partition every
// scoring utterance of a cascade-enabled server; tier1.failed counts
// transparent fault-escalations (a subset of escalate);
// escalated.degraded counts escalations whose heavy result came back
// degraded (tier-1 exits never degrade: they touch no front-end
// battery). The two latency histograms split the /v1/score request
// latency by path — the observable the BENCH_cascade.json speedup claims
// are checked against in production.
type cascadeMetrics struct {
	exit, escalate, failed, escDegraded *obs.Counter
	tier1, escalated                    *obs.Histogram
}

func (s *Server) newCascadeMetrics() cascadeMetrics {
	p := s.ns + ".cascade."
	return cascadeMetrics{
		exit:        s.Counter(p + "exit"),
		escalate:    s.Counter(p + "escalate"),
		failed:      s.Counter(p + "tier1.failed"),
		escDegraded: s.Counter(p + "escalated.degraded"),
		tier1:       s.Histogram(p + "tier1.seconds"),
		escalated:   s.Histogram(p + "escalated.seconds"),
	}
}

// CascadeTier1 runs the tier-1 decision for one utterance against a
// loaded model under pol. Any tier-1 error or panic — including injected
// faults at the "cascade.tier1" chaos site — degrades to a transparent
// escalation: the caller proceeds down the heavy path exactly as if the
// cascade were disabled, and the fault is visible only in the outcome's
// reason (ReasonTier1Fault — the caller owns the failure counter) and
// the trace span.
//
// Exported for the bench harness, which times the same decision in
// process. On the coordinator it runs before any shard RPC, so a tier-1
// exit also saves the whole fan-out.
func CascadeTier1(m *Model, pol cascade.Policy, req *ScoreRequest, parent *obs.Span) (*CascadeOutcome, *ScoreResult) {
	out := &CascadeOutcome{Reason: ReasonNoCascadeModel}
	cm := m.Bundle.Cascade
	if cm == nil {
		return out, nil
	}
	in, ok := req.FrontEnds[cm.FrontEnd]
	if !ok || in.Lattice == nil {
		out.Reason = ReasonNoTier1Input
		return out, nil
	}
	sp := parent.StartChild("cascade.tier1")
	d, err := decideTier1(cm, pol, in.Lattice)
	if err != nil {
		out.Reason = ReasonTier1Fault
		sp.SetLabel("error", err.Error())
		sp.End()
		escalateSpan(parent, out)
		return out, nil
	}
	out.Tier, out.Margin, out.Reason, out.Exited = d.Tier, d.Margin, d.Reason, d.Exit
	sp.SetLabel("tier", d.Tier)
	sp.SetLabel("reason", d.Reason)
	sp.SetLabel("margin", fmt.Sprintf("%.4f", d.Margin))
	sp.End()
	if !d.Exit {
		escalateSpan(parent, out)
		return out, nil
	}
	return out, &ScoreResult{
		ID:      req.ID,
		Best:    m.Bundle.Languages[d.Best],
		Fused:   d.Scores,
		Cascade: out,
	}
}

// decideTier1 is the fault-isolated tier-1 scoring step: 1-best decode of
// the designated front-end's lattice, PRLM scoring, and the margin
// policy. Panics are converted to errors so a broken tier 1 can never
// take down a request the heavy path would have served.
func decideTier1(cm *cascade.Model, pol cascade.Policy, slots [][]Slot) (d cascade.Decision, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("tier-1 panic: %v", r)
		}
	}()
	// Chaos hook: error faults exercise the transparent-escalation path,
	// panic faults the recovery above.
	if err := faultinject.At("cascade.tier1"); err != nil {
		return d, err
	}
	l, err := latticeFromSlots(slots, cm.NumPhones)
	if err != nil {
		// Malformed lattices escalate; the heavy path rejects them with
		// the canonical 400 so error texts stay identical either way.
		return d, err
	}
	seq, _ := l.BestPath()
	th := pol.Threshold(cm.Tiers[cm.TierFor(len(seq))].Name)
	return cm.Decide(seq, th), nil
}

// escalateSpan marks an escalation in the request trace.
func escalateSpan(parent *obs.Span, out *CascadeOutcome) {
	sp := parent.StartChild("cascade.escalate")
	sp.SetLabel("reason", out.Reason)
	sp.End()
}
