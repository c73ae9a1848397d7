package adapt

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dba"
)

func TestParsePolicyDefaults(t *testing.T) {
	for _, spec := range []string{"", "on", "default", "  on  "} {
		p, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spec, err)
		}
		if p != DefaultPolicy() {
			t.Fatalf("ParsePolicy(%q) = %+v, want defaults", spec, p)
		}
	}
}

func TestParsePolicyOverrides(t *testing.T) {
	p, err := ParsePolicy("cadence=30s;votes=3;method=m1;eer-budget=1;shadow-rate=0.25;keep=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Cadence != 30*time.Second || p.Votes != 3 || p.Method != dba.M1 ||
		p.EERBudget != 1 || p.ShadowRate != 0.25 || p.Keep != 2 {
		t.Fatalf("parsed %+v", p)
	}
	// Unspecified keys keep their defaults.
	if p.Probe != DefaultPolicy().Probe || p.Buffer != DefaultPolicy().Buffer {
		t.Fatalf("unspecified keys changed: %+v", p)
	}
}

func TestParsePolicyRejects(t *testing.T) {
	for _, spec := range []string{
		"bogus-key=1",           // unknown key
		"votes",                 // not key=value
		"votes=",                // empty value
		"votes=zero",            // bad integer
		"votes=0",               // below floor
		"cadence=fast",          // bad duration
		"cadence=-1m",           // non-positive duration
		"method=m3",             // unknown method
		"shadow-rate=1.5",       // out of [0,1]
		"shadow-rate=NaN",       // non-finite
		"eer-budget=-1",         // negative
		"keep=0",                // below floor
		"votes=2;votes=3",       // duplicate key
		"min-utts=100;buffer=8", // buffer < min-utts
	} {
		if _, err := ParsePolicy(spec); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", spec)
		}
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"",
		"cadence=90s;probe=5s;votes=1;method=m1;min-utts=1;buffer=64;shadow-rate=1;shadow-bound=0.5;eer-budget=0;canary-tol=0.125;keep=2",
		"votes=7;shadow-rate=0.333",
	} {
		p, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spec, err)
		}
		s := p.String()
		// The canonical form names every key, in order.
		for i, k := range policyKeys {
			if !strings.Contains(s, k+"=") {
				t.Fatalf("String() %q misses key %q", s, k)
			}
			if i > 0 && strings.Index(s, k+"=") < strings.Index(s, policyKeys[i-1]+"=") {
				t.Fatalf("String() %q out of canonical order at %q", s, k)
			}
		}
		p2, err := ParsePolicy(s)
		if err != nil {
			t.Fatalf("ParsePolicy(String() = %q): %v", s, err)
		}
		if p2 != p {
			t.Fatalf("round trip of %q: %+v != %+v", spec, p2, p)
		}
	}
}

func TestPolicyValidateCatchesHandBuilt(t *testing.T) {
	p := DefaultPolicy()
	p.Probe = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero probe accepted")
	}
	p = DefaultPolicy()
	p.Method = dba.Method(99)
	if err := p.Validate(); err == nil {
		t.Fatal("unknown method accepted")
	}
}
