// Package adapt is the online self-training loop: it accumulates
// high-confidence served utterances by the paper's Eq. 13 voting
// (reusing internal/dba), periodically retrains the one-vs-rest battery
// off the request path (DBA-M1/M2 on the frozen training supervectors
// shipped in the bundle's adapt sidecar), and promotes the candidate
// bundle through a generation-versioned pointer flip — but only after a
// three-stage safety gate:
//
//  1. Golden-score canary: the candidate, reloaded from its on-disk
//     generation directory, must reproduce the export-time pinned scores
//     on a frozen referee set within CanaryTol (and must match its
//     in-memory twin bit for bit — a torn or mis-encoded candidate is
//     quarantined, never served).
//  2. EER-on-holdout: the candidate's fused EER on the frozen holdout
//     split must not regress more than EERBudget percent points past the
//     serving model's.
//  3. Shadow scoring: the candidate rescoring a sampled slice of live
//     traffic must not diverge from what was actually served by more
//     than ShadowBound on the fused decision scale.
//
// Promotion is crash-safe (the generation directory is complete and
// verified before a sealed commit record names it; see
// persist.ResolveBundle), reversible (Rollback commits a record naming
// last-known-good), and automatically reverted when the post-promotion
// canary probe fails. The adapt.train, adapt.canary, and adapt.promote
// fault sites let the chaos suite prove an injected failure at any stage
// leaves the serving model untouched.
package adapt

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/dba"
)

// Policy parameterizes the self-training loop. ParsePolicy/String are a
// canonical round trip: String emits every field in a fixed key order,
// and parsing that spec reproduces the policy exactly.
type Policy struct {
	// Cadence is how often the background loop attempts a self-training
	// pass (5m).
	Cadence time.Duration
	// Probe is how often the post-promotion canary re-checks a promoted
	// generation against the pinned referee scores; a failure rolls back
	// to last-known-good (30s).
	Probe time.Duration
	// Votes is the Eq. 13 vote threshold V: an observed utterance enters
	// the self-training set when at least this many front-ends cast an
	// unambiguous calibrated vote for the same language (4).
	Votes int
	// Method selects the retraining set: DBA-M1 (selected utterances
	// only) or DBA-M2 (selected ∪ original training set; the default).
	Method dba.Method
	// MinUtts is the fewest buffered full-battery observations a
	// non-forced pass will train on (16).
	MinUtts int
	// Buffer caps the observation ring; older utterances fall off (4096).
	Buffer int
	// ShadowRate is the fraction of observed traffic retained for the
	// shadow-scoring gate (0.1).
	ShadowRate float64
	// ShadowBound vetoes promotion when the candidate's mean absolute
	// fused-score divergence from served traffic exceeds it (1).
	ShadowBound float64
	// EERBudget is the most the candidate's holdout EER may exceed the
	// serving model's, in percent points (0.5).
	EERBudget float64
	// CanaryTol is the largest absolute drift from the pinned referee
	// scores the canary (and the post-promotion probe) tolerates (5).
	CanaryTol float64
	// Keep is how many generations committed before the serving one
	// survive the post-promotion prune, each with the bundle directories
	// its record names; the serving generation and last-known-good are
	// always pinned (4).
	Keep int
}

// DefaultPolicy returns the policy "-adapt=on" selects.
func DefaultPolicy() Policy {
	return Policy{
		Cadence:     5 * time.Minute,
		Probe:       30 * time.Second,
		Votes:       4,
		Method:      dba.M2,
		MinUtts:     16,
		Buffer:      4096,
		ShadowRate:  0.1,
		ShadowBound: 1,
		EERBudget:   0.5,
		CanaryTol:   5,
		Keep:        4,
	}
}

// policyKeys is the canonical key order String emits and ParsePolicy
// accepts.
var policyKeys = []string{
	"cadence", "probe", "votes", "method", "min-utts", "buffer",
	"shadow-rate", "shadow-bound", "eer-budget", "canary-tol", "keep",
}

// ParsePolicy parses a semicolon-separated key=value spec, e.g.
// "cadence=30s;votes=3;eer-budget=1". Empty spec, "on", and "default"
// select DefaultPolicy; unspecified keys keep their defaults. Every
// successfully parsed policy also passes Validate.
func ParsePolicy(spec string) (Policy, error) {
	p := DefaultPolicy()
	spec = strings.TrimSpace(spec)
	switch spec {
	case "", "on", "default":
		return p, nil
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return p, fmt.Errorf("adapt: policy term %q is not key=value", part)
		}
		if seen[key] {
			return p, fmt.Errorf("adapt: duplicate policy key %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "cadence":
			p.Cadence, err = parseDuration(val)
		case "probe":
			p.Probe, err = parseDuration(val)
		case "votes":
			p.Votes, err = parseInt(val)
		case "method":
			switch val {
			case "m1":
				p.Method = dba.M1
			case "m2":
				p.Method = dba.M2
			default:
				err = fmt.Errorf("want m1 or m2, got %q", val)
			}
		case "min-utts":
			p.MinUtts, err = parseInt(val)
		case "buffer":
			p.Buffer, err = parseInt(val)
		case "shadow-rate":
			p.ShadowRate, err = parseFloat(val)
		case "shadow-bound":
			p.ShadowBound, err = parseFloat(val)
		case "eer-budget":
			p.EERBudget, err = parseFloat(val)
		case "canary-tol":
			p.CanaryTol, err = parseFloat(val)
		case "keep":
			p.Keep, err = parseInt(val)
		default:
			return p, fmt.Errorf("adapt: unknown policy key %q (want one of %s)",
				key, strings.Join(policyKeys, ", "))
		}
		if err != nil {
			return p, fmt.Errorf("adapt: policy %s: %v", key, err)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return d, nil
}

func parseInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return n, nil
}

func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return f, nil
}

// String renders the canonical spec: every key in policyKeys order, so
// ParsePolicy(p.String()) == p for any valid policy.
func (p Policy) String() string {
	method := "m2"
	if p.Method == dba.M1 {
		method = "m1"
	}
	fl := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	terms := []string{
		"cadence=" + p.Cadence.String(),
		"probe=" + p.Probe.String(),
		"votes=" + strconv.Itoa(p.Votes),
		"method=" + method,
		"min-utts=" + strconv.Itoa(p.MinUtts),
		"buffer=" + strconv.Itoa(p.Buffer),
		"shadow-rate=" + fl(p.ShadowRate),
		"shadow-bound=" + fl(p.ShadowBound),
		"eer-budget=" + fl(p.EERBudget),
		"canary-tol=" + fl(p.CanaryTol),
		"keep=" + strconv.Itoa(p.Keep),
	}
	return strings.Join(terms, ";")
}

// Validate checks the invariants the loop relies on; ParsePolicy runs it,
// so a parsed policy is always valid.
func (p Policy) Validate() error {
	if p.Cadence <= 0 {
		return fmt.Errorf("adapt: cadence must be positive, got %v", p.Cadence)
	}
	if p.Probe <= 0 {
		return fmt.Errorf("adapt: probe must be positive, got %v", p.Probe)
	}
	if p.Votes < 1 {
		return fmt.Errorf("adapt: votes must be >= 1, got %d", p.Votes)
	}
	if p.Method != dba.M1 && p.Method != dba.M2 {
		return fmt.Errorf("adapt: unknown method %v", p.Method)
	}
	if p.MinUtts < 1 {
		return fmt.Errorf("adapt: min-utts must be >= 1, got %d", p.MinUtts)
	}
	if p.Buffer < p.MinUtts {
		return fmt.Errorf("adapt: buffer (%d) must hold at least min-utts (%d)", p.Buffer, p.MinUtts)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"shadow-rate", p.ShadowRate},
		{"shadow-bound", p.ShadowBound},
		{"eer-budget", p.EERBudget},
		{"canary-tol", p.CanaryTol},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("adapt: %s must be finite, got %v", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("adapt: %s must be >= 0, got %v", f.name, f.v)
		}
	}
	if p.ShadowRate > 1 {
		return fmt.Errorf("adapt: shadow-rate must be in [0,1], got %v", p.ShadowRate)
	}
	if p.Keep < 1 {
		return fmt.Errorf("adapt: keep must be >= 1, got %d", p.Keep)
	}
	return nil
}
