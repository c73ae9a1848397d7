package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParsePlan builds a Plan from the compact spec the lred -chaos flag (and
// the CI chaos-smoke job) uses. The spec is semicolon-separated; the
// first clause may set the seed, every other clause is one rule:
//
//	seed=7; serve.score.fe.HU:error:p=0.3; parallel.task:panic:every=50;
//	serve.batch:delay:p=0.1,delay=5ms; persist.load.read:error:bytes=128,count=2
//
// Rule form: <site>:<kind>[:opt,opt,…] with kind error|panic|delay and
// options p=<prob> every=<n> after=<n> count=<n> delay=<duration>
// bytes=<n> err=<msg>.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{Seed: 1}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			p.Seed = seed
			continue
		}
		parts := strings.SplitN(clause, ":", 3)
		if len(parts) < 2 || parts[0] == "" {
			return nil, fmt.Errorf("faultinject: rule %q needs <site>:<kind>", clause)
		}
		r := Rule{Site: parts[0]}
		switch parts[1] {
		case "error":
			r.Kind = KindError
		case "panic":
			r.Kind = KindPanic
		case "delay":
			r.Kind = KindDelay
		default:
			return nil, fmt.Errorf("faultinject: unknown kind %q in %q", parts[1], clause)
		}
		if len(parts) == 3 {
			for _, opt := range strings.Split(parts[2], ",") {
				opt = strings.TrimSpace(opt)
				if opt == "" {
					continue
				}
				key, val, ok := strings.Cut(opt, "=")
				if !ok {
					return nil, fmt.Errorf("faultinject: option %q in %q is not key=value", opt, clause)
				}
				var err error
				switch key {
				case "p":
					r.Prob, err = strconv.ParseFloat(val, 64)
					if err == nil && !(r.Prob >= 0 && r.Prob <= 1) {
						err = fmt.Errorf("probability %v outside [0,1]", r.Prob)
					}
				case "every":
					r.Every, err = strconv.Atoi(val)
				case "after":
					r.After, err = strconv.Atoi(val)
				case "count":
					r.Count, err = strconv.Atoi(val)
				case "delay":
					r.Delay, err = time.ParseDuration(val)
				case "bytes":
					r.Bytes, err = strconv.ParseInt(val, 10, 64)
				case "err":
					r.Err = val
				default:
					err = fmt.Errorf("unknown option %q", key)
				}
				if err == nil && (r.Every < 0 || r.After < 0 || r.Count < 0) {
					err = fmt.Errorf("option %q is negative", opt)
				}
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: %v", clause, err)
				}
			}
		}
		if r.Prob == 0 && r.Every == 0 {
			return nil, fmt.Errorf("faultinject: rule %q never fires (set p= or every=)", clause)
		}
		p.Rules = append(p.Rules, r)
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("faultinject: spec %q has no rules", spec)
	}
	return p, nil
}
