// Package faultinject is a deterministic, seeded fault-injection layer
// for chaos testing the pipeline and the online scoring service. Code
// under test declares *named injection points* ("sites"); a test (or the
// lred -chaos flag) activates a Plan of per-site rules that decide, per
// hit, whether the site faults — by returning an error, panicking, or
// stalling. With no plan active every check is a single atomic load, so
// instrumented code pays nothing in production.
//
// Determinism: every site gets its own splitmix64 stream seeded from
// (plan seed ⊕ site-name hash), and rules fire as a pure function of the
// site's hit index. Two runs that hit a site the same number of times see
// the identical fault schedule at that site regardless of what other
// sites (or goroutine interleavings elsewhere) do — which is what lets
// the chaos suite assert exact failure behavior instead of "something
// broke somewhere".
//
// Named sites threaded through the stack (see the packages that call
// At/Disturb/Reader):
//
//	lattice.sausage        confusion-network construction (panic/delay)
//	frontend.decode        simulated recognizer decode (error→quarantine/panic/delay)
//	persist.save           model save or worker spool install before the atomic rename (error)
//	persist.load.read      model read stream — partial/torn reads (error)
//	parallel.task          worker-pool task body (panic/stall)
//	serve.handler          HTTP scoring handler entry (delay/error)
//	serve.batch            one request's scoring pass (delay/panic)
//	serve.score.fe.<name>  one front-end's scoring pass (error/panic)
//	serve.reload           model registry reload from disk (error)
//	cascade.tier1          cascade tier-1 scoring (error/panic → transparent
//	                       escalation to the heavy path, never a 5xx)
//
// Online-adaptation sites (internal/adapt; any injected error, panic, or
// crash leaves the serving model untouched and bit-identical — the
// promotion pipeline aborts or quarantines instead):
//
//	adapt.train            self-training pass — vote, select, retrain (error/panic)
//	adapt.canary           golden-score canary; hit both by the pre-promotion
//	                       gate and the post-promotion probe, so after=N can
//	                       fail either one deterministically (error/panic →
//	                       quarantine or automatic rollback)
//	adapt.promote          the commit record that promotes a candidate — the
//	                       promotion commit point (error/panic models a
//	                       crash mid-promotion)
//
// Cluster sites (the coordinator hits one per shard RPC — scoring,
// bundle push, and health probe alike; internal/cluster):
//
//	cluster.rpc.<host:port>  one shard RPC about to leave the coordinator
//	                         (error→shard degrades or breaker trips,
//	                         delay→RPC stalls into its shard deadline).
//	                         Plans usually match by prefix: cluster.rpc.*
//
// Checkpoint/resume sites (the kill-and-resume suite and lre -chaos
// schedule crashes here; see internal/checkpoint):
//
//	checkpoint.save             save entry point (error aborts cleanly)
//	checkpoint.save.prepublish  bytes durable, before the manifest rename (crash-before-commit)
//	checkpoint.save.postpublish after the manifest rename (crash-after-commit)
//	checkpoint.load             entry load entry point (error)
//	checkpoint.load.read        entry read stream — partial/torn reads (error)
package faultinject

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is what happens when a rule fires.
type Kind int

const (
	// KindError makes At return an error (sites with an error path
	// degrade; sites without one — Disturb — panic instead).
	KindError Kind = iota
	// KindPanic panics at the site.
	KindPanic
	// KindDelay stalls the site for Rule.Delay, then proceeds normally.
	KindDelay
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule schedules faults at one site. Site matches exactly, or by prefix
// when it ends in ".*" (e.g. "serve.score.fe.*" covers every front-end).
// A rule fires on a hit when the hit survives After, matches Every and/or
// the Prob draw, and Count has not been exhausted. Zero Every with zero
// Prob never fires.
type Rule struct {
	Site string
	Kind Kind
	// Prob fires with this per-hit probability, drawn from the site's
	// deterministic stream.
	Prob float64
	// Every fires on hits Every, 2·Every, … (counted after After). Both
	// Every and Prob set means either firing condition suffices.
	Every int
	// After skips the site's first After hits entirely.
	After int
	// Count caps the total number of fires (0 = unlimited).
	Count int
	// Err is the error/panic message (a default naming the site is used
	// when empty).
	Err string
	// Delay is the stall duration for KindDelay.
	Delay time.Duration
	// Bytes delays a Reader fault until that many bytes were read
	// (simulating a torn/partial read instead of an immediate failure).
	Bytes int64
}

// Plan is a complete fault schedule.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// InjectedError marks every error produced by this package, so tests and
// handlers can tell injected faults from organic ones.
type InjectedError struct {
	Site string
	Msg  string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: %s at %s", e.Msg, e.Site)
}

// siteState is one concrete site's deterministic stream and counters.
type siteState struct {
	rule *Rule

	mu    sync.Mutex
	rng   uint64 // splitmix64 state
	hits  int64
	fires int64
}

// active is one Enable'd plan compiled for lookup.
type active struct {
	seed  uint64
	exact map[string]*Rule
	// prefixes are ".*" rules, longest prefix first.
	prefixes []prefixRule

	mu    sync.Mutex
	sites map[string]*siteState
}

type prefixRule struct {
	prefix string
	rule   *Rule
}

var (
	mu      sync.Mutex
	current *active
	enabled atomic.Bool
)

// Enable activates a plan (replacing any active one). Call Disable (or
// the returned restore function) when done; tests should defer it.
func Enable(p *Plan) func() {
	a := &active{
		seed:  p.Seed,
		exact: make(map[string]*Rule, len(p.Rules)),
		sites: make(map[string]*siteState),
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if strings.HasSuffix(r.Site, ".*") {
			a.prefixes = append(a.prefixes, prefixRule{prefix: strings.TrimSuffix(r.Site, "*"), rule: r})
		} else {
			a.exact[r.Site] = r
		}
	}
	sort.Slice(a.prefixes, func(i, j int) bool {
		return len(a.prefixes[i].prefix) > len(a.prefixes[j].prefix)
	})
	mu.Lock()
	current = a
	enabled.Store(true)
	mu.Unlock()
	return Disable
}

// Disable deactivates fault injection. Idempotent.
func Disable() {
	mu.Lock()
	enabled.Store(false)
	current = nil
	mu.Unlock()
}

// SiteStats is one site's hit/fire counters under the active plan.
type SiteStats struct {
	Hits  int64
	Fires int64
}

// Snapshot returns per-site counters of the active plan (nil when
// disabled). The chaos suite uses it to assert that every named site
// actually fired.
func Snapshot() map[string]SiteStats {
	mu.Lock()
	a := current
	mu.Unlock()
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]SiteStats, len(a.sites))
	for name, st := range a.sites {
		st.mu.Lock()
		out[name] = SiteStats{Hits: st.hits, Fires: st.fires}
		st.mu.Unlock()
	}
	return out
}

// lookup resolves the rule for a concrete site name.
func (a *active) lookup(site string) *Rule {
	if r, ok := a.exact[site]; ok {
		return r
	}
	for _, p := range a.prefixes {
		if strings.HasPrefix(site, p.prefix) {
			return p.rule
		}
	}
	return nil
}

// state returns (creating if needed) the per-site state.
func (a *active) state(site string) *siteState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.sites[site]
	if !ok {
		st = &siteState{rule: a.lookup(site), rng: a.seed ^ fnv64(site)}
		a.sites[site] = st
	}
	return st
}

// hit records one hit at the site and returns the scheduled fault rule if
// this hit fires, else nil.
func hit(site string) *Rule {
	if !enabled.Load() {
		return nil
	}
	mu.Lock()
	a := current
	mu.Unlock()
	if a == nil {
		return nil
	}
	st := a.state(site)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hits++
	r := st.rule
	if r == nil {
		return nil
	}
	if st.hits <= int64(r.After) {
		return nil
	}
	if r.Count > 0 && st.fires >= int64(r.Count) {
		return nil
	}
	// Exactly one stream draw per hit (when Prob is in play) keeps the
	// schedule a pure function of the hit index, whatever Every decides.
	draw := 1.0
	if r.Prob > 0 {
		draw = u01(&st.rng)
	}
	fired := r.Every > 0 && (st.hits-int64(r.After))%int64(r.Every) == 0
	if draw < r.Prob {
		fired = true
	}
	if !fired {
		return nil
	}
	st.fires++
	return r
}

// errFor builds the injected error for a fired rule.
func errFor(site string, r *Rule) *InjectedError {
	msg := r.Err
	if msg == "" {
		msg = "injected " + r.Kind.String()
	}
	return &InjectedError{Site: site, Msg: msg}
}

// At checks a named site: a fired error rule returns its error, a panic
// rule panics with an *InjectedError, a delay rule sleeps then returns
// nil. The normal (no plan / no fault) path is a single atomic load.
func At(site string) error {
	r := hit(site)
	if r == nil {
		return nil
	}
	switch r.Kind {
	case KindPanic:
		panic(errFor(site, r))
	case KindDelay:
		time.Sleep(r.Delay)
		return nil
	default:
		return errFor(site, r)
	}
}

// Disturb is At for call sites with no error return (lattice builders,
// worker-pool bodies): error-kind rules surface as panics so a scheduled
// fault never silently disappears.
func Disturb(site string) {
	r := hit(site)
	if r == nil {
		return
	}
	switch r.Kind {
	case KindDelay:
		time.Sleep(r.Delay)
	default:
		panic(errFor(site, r))
	}
}

// Reader wraps r with the fault scheduled at site on this hit, if any: a
// fired error rule makes the stream fail after Rule.Bytes bytes (0 =
// immediately), simulating a torn or partial read. Other kinds, and the
// no-fault path, return r unchanged (after any delay).
func Reader(site string, r io.Reader) io.Reader {
	rule := hit(site)
	if rule == nil {
		return r
	}
	switch rule.Kind {
	case KindPanic:
		panic(errFor(site, rule))
	case KindDelay:
		time.Sleep(rule.Delay)
		return r
	}
	return &faultReader{r: r, remaining: rule.Bytes, err: errFor(site, rule)}
}

type faultReader struct {
	r         io.Reader
	remaining int64
	err       error
}

func (fr *faultReader) Read(p []byte) (int, error) {
	if fr.remaining <= 0 {
		return 0, fr.err
	}
	if int64(len(p)) > fr.remaining {
		p = p[:fr.remaining]
	}
	n, err := fr.r.Read(p)
	fr.remaining -= int64(n)
	if err == io.EOF {
		// The underlying stream ended before the budget: keep the real EOF.
		return n, err
	}
	if fr.remaining <= 0 && err == nil {
		err = fr.err
	}
	return n, err
}

// fnv64 hashes a site name (FNV-1a).

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 step; u01 maps it to [0,1).
func u01(state *uint64) float64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
