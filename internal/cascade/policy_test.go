package cascade

import (
	"math"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in      string
		def     float64
		perTier map[string]float64
	}{
		{"", 0, nil},
		{"0.25", 0.25, nil},
		{"-0.5", -0.5, nil},
		{"-inf", math.Inf(-1), nil},
		{"+Inf", math.Inf(1), nil},
		{"default=0.1", 0.1, nil},
		{"default=0.1;30s=0.3", 0.1, map[string]float64{"30s": 0.3}},
		{"30s=0.3, 3s=-inf", 0, map[string]float64{"30s": 0.3, "3s": math.Inf(-1)}},
		{" default = 1 ; 10s = 2 ", 1, map[string]float64{"10s": 2}},
	}
	for _, c := range cases {
		p, err := ParsePolicy(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if p.Default != c.def {
			t.Fatalf("%q: default %g, want %g", c.in, p.Default, c.def)
		}
		if len(p.PerTier) != len(c.perTier) {
			t.Fatalf("%q: overrides %v, want %v", c.in, p.PerTier, c.perTier)
		}
		for k, v := range c.perTier {
			if p.PerTier[k] != v {
				t.Fatalf("%q: tier %s = %g, want %g", c.in, k, p.PerTier[k], v)
			}
		}
		// Canonical form is a parse fixed point.
		p2, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("%q: reparse %q: %v", c.in, p.String(), err)
		}
		if !policiesEqual(p, p2) {
			t.Fatalf("%q: round trip %q gave %+v, want %+v", c.in, p.String(), p2, p)
		}
	}
}

func policiesEqual(a, b Policy) bool {
	if a.Default != b.Default || len(a.PerTier) != len(b.PerTier) {
		return false
	}
	for k, v := range a.PerTier {
		w, ok := b.PerTier[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

func TestParsePolicyErrors(t *testing.T) {
	for _, in := range []string{
		"nan", "NaN", "30s=nan", "abc", "=1", "30s=", "30s=x",
		"30s=1;30s=2", "default=1;default=2", "30s",
	} {
		if p, err := ParsePolicy(in); err == nil {
			t.Fatalf("%q: accepted as %+v", in, p)
		}
	}
}

func TestPolicyThresholdLookup(t *testing.T) {
	p, err := ParsePolicy("default=0.1;30s=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Threshold("30s"); got != 0.5 {
		t.Fatalf("30s = %g", got)
	}
	if got := p.Threshold("3s"); got != 0.1 {
		t.Fatalf("3s = %g", got)
	}
}

func TestPolicyValidateFor(t *testing.T) {
	m, _ := fixtureModel(t, 0)
	good, _ := ParsePolicy("default=0;long=0.2")
	if err := good.ValidateFor(m); err != nil {
		t.Fatal(err)
	}
	bad, _ := ParsePolicy("longg=0.2")
	if err := bad.ValidateFor(m); err == nil {
		t.Fatal("unknown tier accepted")
	}
}
