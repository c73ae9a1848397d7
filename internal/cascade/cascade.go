// Package cascade implements the two-tier scoring cascade's cheap first
// tier: a phone-string n-gram LM classifier (PRLM, internal/prlm) over the
// 1-best decode of a single designated front-end, plus the calibrated
// margin policy that decides — per duration tier — whether a request's
// tier-1 answer is confident enough to return immediately or must be
// escalated to the full lattice → supervector → OVR-SVM path.
//
// The decision contract (DESIGN.md "Cascade serving"):
//
//   - Every request is scored by tier 1 first (when its designated
//     front-end arrived as a lattice); the margin is the gap between the
//     best and second-best language LLR.
//   - The request exits at tier 1 iff margin ≥ required(tier), where
//     required(tier) = calibrated(tier) − threshold. The threshold is an
//     aggressiveness offset: −Inf forces required = +Inf (escalate
//     everything — the bit-identity referee), +Inf forces required = −Inf
//     (everything exits at tier 1), 0 uses the dev-calibrated per-tier
//     margins as-is.
//   - Exit decisions are monotone in both the margin and the threshold: a
//     request that exits keeps exiting if its margin grows or the
//     threshold grows.
package cascade

import (
	"fmt"
	"math"

	"repro/internal/prlm"
)

// TierPolicy is one duration tier's calibrated exit policy. Tiers are
// ordered longest-first (matching corpus.Durations); membership is decided
// by the decoded phone-string length — the only duration proxy available
// at serve time.
type TierPolicy struct {
	Name string
	// MinPhones is the smallest 1-best length that belongs to this tier.
	// The last tier's MinPhones is 0, so every length maps somewhere.
	MinPhones int
	// RequiredMargin is the exit bar at threshold offset 0, calibrated on
	// dev so the exiting subset meets the training accuracy target. +Inf
	// means "never exit at the default threshold" (calibration found no
	// safe operating point).
	RequiredMargin float64
	// Class-conditional affine maps onto the heavy path's fused score
	// scale, fit on dev with true labels (least squares per class):
	// TargetA/TargetB map the winning language's LLR (tier-1 exits are
	// calibrated to be near-certain, so the argmax stands in for the
	// target class), NontargetA/NontargetB map the rest. Separate maps
	// matter because the heavy backend emits log-odds with well-separated
	// class-conditional locations that one global affine cannot
	// reproduce — and a location mismatch shows up directly as pooled
	// detection EER. Positive slopes keep each class's ordering.
	TargetA, TargetB       float64
	NontargetA, NontargetB float64
}

// Model is the persisted tier-1 artifact carried inside a persist.Bundle:
// the PRLM scorer for one designated front-end plus the per-tier policy.
// The bundle's format version covers its layout.
type Model struct {
	// FrontEnd names the bundle front-end whose 1-best decode feeds tier 1.
	FrontEnd  string
	NumPhones int
	LM        *prlm.System
	// Tiers is ordered by MinPhones descending (longest tier first).
	Tiers []TierPolicy
}

// Decision reason codes. The serve layer adds its own escalation reasons
// for requests tier 1 never scored (no lattice for the designated
// front-end, tier-1 fault); these two are the policy's.
const (
	ReasonHighMargin = "high_margin" // exit: margin cleared the tier's bar
	ReasonLowMargin  = "low_margin"  // escalate: margin under the bar
)

// Decision is the tier-1 outcome for one utterance.
type Decision struct {
	// Exit is true when tier 1 answers the request.
	Exit   bool
	Reason string
	// Tier is the duration tier the utterance was assigned to.
	Tier string
	// Margin is the best-vs-second-best gap of the raw tier-1 LLRs;
	// Required is the bar it was compared against (calibrated − threshold).
	Margin   float64
	Required float64
	// Scores are the tier-1 per-language scores on the heavy fused-score
	// scale (the tier's class-conditional calibration applied: the target
	// map on the winning language, the nontarget map elsewhere). Best is
	// the argmax of the raw LLRs (= of Scores, since the target location
	// sits above the nontarget one).
	Scores []float64
	Best   int
}

// TierFor maps a 1-best length to a tier index (first tier whose
// MinPhones the length reaches; the last tier catches everything).
func (m *Model) TierFor(numPhones int) int {
	for i, t := range m.Tiers {
		if numPhones >= t.MinPhones {
			return i
		}
	}
	return len(m.Tiers) - 1
}

// requiredMargin computes the exit bar for a tier under a threshold
// offset. ±Inf thresholds are handled explicitly so the endpoints hold
// even for a tier calibrated to ±Inf.
func requiredMargin(calibrated, threshold float64) float64 {
	if math.IsInf(threshold, -1) {
		return math.Inf(1) // escalate everything
	}
	if math.IsInf(threshold, 1) {
		return math.Inf(-1) // everything exits
	}
	return calibrated - threshold
}

// Decide scores one 1-best phone string and applies the exit policy under
// the given threshold offset.
func (m *Model) Decide(seq []int, threshold float64) Decision {
	ti := m.TierFor(len(seq))
	tier := &m.Tiers[ti]
	raw := m.LM.Score(seq)
	best, second := 0, -1
	for k, v := range raw {
		if v > raw[best] {
			best = k
		}
	}
	for k, v := range raw {
		if k != best && (second < 0 || v > raw[second]) {
			second = k
		}
	}
	margin := 0.0
	if second >= 0 {
		margin = raw[best] - raw[second]
	}
	scores := make([]float64, len(raw))
	for k, v := range raw {
		if k == best {
			scores[k] = tier.TargetA*v + tier.TargetB
		} else {
			scores[k] = tier.NontargetA*v + tier.NontargetB
		}
	}
	d := Decision{
		Tier:     tier.Name,
		Margin:   margin,
		Required: requiredMargin(tier.RequiredMargin, threshold),
		Scores:   scores,
		Best:     best,
	}
	if d.Exit = margin >= d.Required; d.Exit {
		d.Reason = ReasonHighMargin
	} else {
		d.Reason = ReasonLowMargin
	}
	return d
}

// Validate checks the internal consistency a scoring process relies on.
func (m *Model) Validate() error {
	if m.FrontEnd == "" {
		return fmt.Errorf("cascade: model names no front-end")
	}
	if m.NumPhones <= 0 {
		return fmt.Errorf("cascade: invalid phone inventory %d", m.NumPhones)
	}
	if m.LM == nil || len(m.LM.Models) == 0 || m.LM.Background == nil {
		return fmt.Errorf("cascade: model has no language models")
	}
	if m.LM.NumPhones != m.NumPhones {
		return fmt.Errorf("cascade: LM inventory %d does not match model inventory %d", m.LM.NumPhones, m.NumPhones)
	}
	if len(m.Tiers) == 0 {
		return fmt.Errorf("cascade: model has no tiers")
	}
	seen := make(map[string]bool, len(m.Tiers))
	for i, t := range m.Tiers {
		if t.Name == "" {
			return fmt.Errorf("cascade: tier %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("cascade: duplicate tier %q", t.Name)
		}
		seen[t.Name] = true
		if t.MinPhones < 0 {
			return fmt.Errorf("cascade: tier %q has negative MinPhones", t.Name)
		}
		if i > 0 && t.MinPhones >= m.Tiers[i-1].MinPhones {
			return fmt.Errorf("cascade: tier %q MinPhones %d not below previous tier's %d",
				t.Name, t.MinPhones, m.Tiers[i-1].MinPhones)
		}
		if math.IsNaN(t.RequiredMargin) || math.IsInf(t.RequiredMargin, -1) {
			return fmt.Errorf("cascade: tier %q has invalid required margin", t.Name)
		}
		for _, s := range [][2]float64{{t.TargetA, t.TargetB}, {t.NontargetA, t.NontargetB}} {
			if !(s[0] > 0) || math.IsInf(s[0], 0) || math.IsNaN(s[1]) || math.IsInf(s[1], 0) {
				return fmt.Errorf("cascade: tier %q has invalid score calibration (%g, %g)", t.Name, s[0], s[1])
			}
		}
	}
	if last := m.Tiers[len(m.Tiers)-1].MinPhones; last != 0 {
		return fmt.Errorf("cascade: last tier starts at %d phones, leaving shorter inputs unmapped", last)
	}
	return nil
}
