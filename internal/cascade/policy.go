package cascade

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Policy is the serve-time threshold configuration (the `-cascade-margin`
// flag): one default offset plus optional per-tier overrides. The offset
// is subtracted from each tier's calibrated required margin, so larger
// values exit more traffic; −Inf escalates everything (bit-identity
// referee) and +Inf answers everything at tier 1.
type Policy struct {
	Default float64
	// PerTier overrides the default for named tiers ("30s", "10s", "3s").
	// Nil when no overrides were given.
	PerTier map[string]float64
}

// Threshold returns the offset to use for a tier.
func (p Policy) Threshold(tier string) float64 {
	if v, ok := p.PerTier[tier]; ok {
		return v
	}
	return p.Default
}

// String renders the canonical spec form, a ParsePolicy fixed point.
func (p Policy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "default=%s", formatThreshold(p.Default))
	names := make([]string, 0, len(p.PerTier))
	for name := range p.PerTier {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, ";%s=%s", name, formatThreshold(p.PerTier[name]))
	}
	return b.String()
}

func formatThreshold(v float64) string {
	// %g renders ±Inf as "+Inf"/"-Inf", which ParseFloat accepts back.
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParsePolicy parses a threshold spec. Accepted forms:
//
//	""                          default 0 (calibrated margins as-is)
//	"0.15" / "-inf" / "+Inf"    a bare offset applied to every tier
//	"default=0;30s=0.2;3s=-1"   per-tier overrides, ';' or ',' separated
//
// Values are Go floats (±Inf allowed, NaN rejected); tier names are free
// -form but must be nonempty and unique. Unknown tier names are tolerated
// at parse time — the policy is validated against a concrete model's tier
// set when serving starts.
func ParsePolicy(s string) (Policy, error) {
	p := Policy{}
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	// Bare-number form.
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		if math.IsNaN(v) {
			return Policy{}, fmt.Errorf("cascade: threshold is NaN")
		}
		p.Default = v
		return p, nil
	}
	seen := make(map[string]bool)
	for _, item := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == ',' }) {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, val, ok := strings.Cut(item, "=")
		if !ok {
			return Policy{}, fmt.Errorf("cascade: %q is not name=threshold", item)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return Policy{}, fmt.Errorf("cascade: empty tier name in %q", item)
		}
		if seen[name] {
			return Policy{}, fmt.Errorf("cascade: duplicate tier %q", name)
		}
		seen[name] = true
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return Policy{}, fmt.Errorf("cascade: tier %q: bad threshold %q", name, strings.TrimSpace(val))
		}
		if math.IsNaN(v) {
			return Policy{}, fmt.Errorf("cascade: tier %q: threshold is NaN", name)
		}
		if name == "default" {
			p.Default = v
			continue
		}
		if p.PerTier == nil {
			p.PerTier = make(map[string]float64)
		}
		p.PerTier[name] = v
	}
	return p, nil
}

// ValidateFor checks a parsed policy against a concrete model: every
// per-tier override must name one of the model's tiers (catching typos
// like "30sec" before they silently fall back to the default).
func (p Policy) ValidateFor(m *Model) error {
	for name := range p.PerTier {
		found := false
		for _, t := range m.Tiers {
			if t.Name == name {
				found = true
				break
			}
		}
		if !found {
			known := make([]string, len(m.Tiers))
			for i, t := range m.Tiers {
				known[i] = t.Name
			}
			return fmt.Errorf("cascade: policy names unknown tier %q (model has %v)", name, known)
		}
	}
	return nil
}
