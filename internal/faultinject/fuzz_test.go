package faultinject

import "testing"

// FuzzParsePlan: the -chaos spec parser must never panic, and every plan
// it accepts must be one that can do something: at least one rule, every
// rule naming a site, a probability in [0,1], and a firing condition
// (p > 0 or every > 0) with non-negative hit counts.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"seed=9; serve.score.fe.HU:error:p=0.25,count=3; parallel.task:panic:every=50,after=10",
		"serve.batch:delay:p=0.1,delay=5ms; persist.load.read:error:bytes=128,every=2,err=torn",
		"seed=1; checkpoint.save.prepublish:panic:every=1,after=3,count=1",
		"cluster.rpc.*:error:p=1",
		"site:error:p=NaN",
		"site:error:every=-1",
		":error:every=1",
		"site:error:p=1e-300",
		";;seed=2;;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if len(p.Rules) == 0 {
			t.Fatalf("ParsePlan(%q) accepted a plan with no rules", spec)
		}
		for _, r := range p.Rules {
			switch {
			case r.Site == "":
				t.Fatalf("ParsePlan(%q): rule %+v names no site", spec, r)
			case !(r.Prob >= 0 && r.Prob <= 1):
				t.Fatalf("ParsePlan(%q): rule %+v has p outside [0,1]", spec, r)
			case r.Prob <= 0 && r.Every <= 0:
				t.Fatalf("ParsePlan(%q): rule %+v can never fire", spec, r)
			case r.Every < 0 || r.After < 0 || r.Count < 0:
				t.Fatalf("ParsePlan(%q): rule %+v has a negative hit count", spec, r)
			}
		}
	})
}
