package adapt

import (
	"context"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/sparse"
)

// Chaos sites of the promotion pipeline (see internal/faultinject). Any
// injected error or panic at any of them must leave the serving model
// untouched and bit-identical — the chaos suite asserts exactly that.
const (
	// SiteTrain guards the self-training pass (vote, select, retrain).
	SiteTrain = "adapt.train"
	// SiteCanary guards the golden-score canary — both the pre-promotion
	// gate and the post-promotion probe hit it, so one rule can fail
	// either stage deterministically.
	SiteCanary = "adapt.canary"
	// SitePromote guards the commit record that promotes a candidate (the
	// promotion commit point); a fault here models a crash mid-promotion.
	SitePromote = "adapt.promote"
)

// Outcome strings of one promotion attempt (Result.Outcome).
const (
	OutcomePromoted   = "promoted"
	OutcomeNoData     = "skipped:not-enough-data"
	OutcomeNoVotes    = "skipped:no-selection"
	OutcomeTrainErr   = "error:train"
	OutcomeSaveErr    = "error:save"
	OutcomePromoteErr = "error:promote"
	OutcomeSwapErr    = "error:swap"
	OutcomeCanaryVeto = "vetoed:canary"
	OutcomeEERVeto    = "vetoed:eer"
	OutcomeShadowVeto = "vetoed:shadow"
	OutcomeRolledBack = "rolled-back:probe"
)

// Config wires an Adapter to its serving process without importing it.
type Config struct {
	// Dir is the registry's bundle root (commit records + sidecar).
	Dir string
	// Policy parameterizes the loop; must Validate.
	Policy Policy
	// Swap triggers the serving process's model reload after a commit
	// (the serve layer routes it through its retry/backoff +
	// circuit-breaker reloader). Required.
	Swap func() error
	// Current returns the bundle the serving process is answering with
	// right now (nil before the first load) — the post-promotion probe
	// scores it against the pinned referee set. Required.
	Current func() *persist.Bundle
	// Logf receives progress lines (nil: log.Printf).
	Logf func(format string, args ...any)
}

// Result is the outcome of one promotion attempt (or probe/rollback).
type Result struct {
	Promoted   bool    `json:"promoted"`
	Outcome    string  `json:"outcome"`
	Generation int64   `json:"generation"`
	Observed   int     `json:"observed,omitempty"`
	Selected   int     `json:"selected,omitempty"`
	CanaryMax  float64 `json:"canary_max_drift,omitempty"`
	CandEER    float64 `json:"candidate_eer_pct,omitempty"`
	ServEER    float64 `json:"serving_eer_pct,omitempty"`
	ShadowDiv  float64 `json:"shadow_divergence,omitempty"`
	ShadowN    int     `json:"shadow_sampled,omitempty"`
	Err        string  `json:"error,omitempty"`
}

// Status is the /adaptz view of the loop.
type Status struct {
	Enabled       bool   `json:"enabled"`
	Policy        string `json:"policy,omitempty"`
	Generation    int64  `json:"generation"`
	LastKnownGood string `json:"last_known_good,omitempty"`
	Buffered      int    `json:"buffered_utts"`
	Shadow        int    `json:"shadow_utts"`
	Observed      int64  `json:"observed_utts"`
	Attempts      int64  `json:"attempts"`
	Promotions    int64  `json:"promotions"`
	Rollbacks     int64  `json:"rollbacks"`
	Vetoes        int64  `json:"vetoes"`
	Quarantined   int64  `json:"quarantined"`
	Last          Result `json:"last,omitempty"`
}

// Adapter owns the self-training loop of one serving process.
type Adapter struct {
	cfg   Config
	set   *Set
	numFE int

	// mu serializes promotion attempts, probes, and rollbacks — each
	// commit and its bookkeeping are one critical section. The
	// accumulator has its own lock, so Observe never contends with a
	// training pass.
	mu          sync.Mutex
	acc         *accumulator
	generation  int64
	lkg         string
	attempts    int64
	promotions  int64
	rollbacks   int64
	vetoes      int64
	quarantined int64
	last        Result
}

// New builds an adapter over a bundle root. The root must currently
// resolve to a loadable, adaptable bundle: a plain float64 battery
// (a compressed bundle ships no trainable weights) and an adapt sidecar whose
// geometry matches. Fails fast otherwise — adaptation is explicit
// opt-in, and a misconfigured loop must not silently no-op.
func New(cfg Config) (*Adapter, error) {
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dir == "" || cfg.Swap == nil || cfg.Current == nil {
		return nil, fmt.Errorf("adapt: config needs Dir, Swap, and Current")
	}
	b, _, info, err := persist.ResolveBundle(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("adapt: bundle root: %w", err)
	}
	set, err := LoadSet(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if err := checkSetAgainstBundle(set, b); err != nil {
		return nil, err
	}
	a := &Adapter{
		cfg:        cfg,
		set:        set,
		numFE:      len(b.FrontEnds),
		acc:        newAccumulator(len(b.FrontEnds), cfg.Policy.Buffer, cfg.Policy.ShadowRate),
		generation: info.Generation,
		lkg:        info.LastKnownGood,
	}
	obs.SetGauge("adapt.generation", float64(a.generation))
	return a, nil
}

// checkSetAgainstBundle verifies the sidecar belongs to this bundle:
// same languages, same front-end order, matching weight-space
// geometry, float64 weights.
func checkSetAgainstBundle(set *Set, b *persist.Bundle) error {
	if len(set.Languages) != len(b.Languages) {
		return fmt.Errorf("adapt: sidecar lists %d languages, bundle %d", len(set.Languages), len(b.Languages))
	}
	for i, l := range b.Languages {
		if set.Languages[i] != l {
			return fmt.Errorf("adapt: sidecar language %d is %q, bundle has %q", i, set.Languages[i], l)
		}
	}
	if len(set.FrontEnds) != len(b.FrontEnds) {
		return fmt.Errorf("adapt: sidecar covers %d front-ends, bundle has %d", len(set.FrontEnds), len(b.FrontEnds))
	}
	for q := range b.FrontEnds {
		fe := &b.FrontEnds[q]
		sfe := &set.FrontEnds[q]
		if sfe.Name != fe.Name {
			return fmt.Errorf("adapt: sidecar front-end %d is %q, bundle has %q", q, sfe.Name, fe.Name)
		}
		if fe.Quant != nil {
			return fmt.Errorf("adapt: front-end %q is int8-quantized — compressed bundles cannot self-train (serve them with -adapt=off)", fe.Name)
		}
		if d := fe.WeightDim(); sfe.Dim != d {
			return fmt.Errorf("adapt: front-end %q sidecar is %d-dim, bundle's weight space is %d-dim", fe.Name, sfe.Dim, d)
		}
	}
	return nil
}

func (a *Adapter) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
		return
	}
	log.Printf("adapt: "+format, args...)
}

// Observe feeds one served full-battery utterance into the accumulator:
// the weight-space vectors scored and the rows served, keyed by bundle
// front-end index. Degraded or partial-battery results must not be
// offered (their vote rows would be meaningless). Never blocks on a
// training pass.
func (a *Adapter) Observe(vectors map[int]*sparse.Vector, scores map[int][]float64) {
	if len(vectors) != a.numFE || len(scores) != a.numFE {
		return
	}
	o := Observation{Vectors: make([]*sparse.Vector, a.numFE), Scores: make([][]float64, a.numFE)}
	for q := 0; q < a.numFE; q++ {
		o.Vectors[q] = vectors[q]
		o.Scores[q] = scores[q]
	}
	if a.acc.add(o) {
		obs.Inc("adapt.observed")
	}
}

// Status reports the loop's current state.
func (a *Adapter) Status() Status {
	buffered, shadow, seen := a.acc.counts()
	a.mu.Lock()
	defer a.mu.Unlock()
	return Status{
		Enabled:       true,
		Policy:        a.cfg.Policy.String(),
		Generation:    a.generation,
		LastKnownGood: a.lkg,
		Buffered:      buffered,
		Shadow:        shadow,
		Observed:      seen,
		Attempts:      a.attempts,
		Promotions:    a.promotions,
		Rollbacks:     a.rollbacks,
		Vetoes:        a.vetoes,
		Quarantined:   a.quarantined,
		Last:          a.last,
	}
}

// guard runs one promotion stage, converting an injected (or organic)
// panic into an error — the chaos contract says a panic at any adapt.*
// site aborts the attempt, never the process, and never the serving
// model.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("adapt: panic: %v", r)
		}
	}()
	return fn()
}

// TryPromote runs one complete gated promotion attempt. force bypasses
// the MinUtts floor (the /-/adapt/promote endpoint) but never any gate.
// The returned Result is also recorded as Status().Last; every failure,
// veto and skip is an Outcome in it.
func (a *Adapter) TryPromote(force bool) Result {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempts++
	obs.Inc("adapt.attempts")
	res := a.tryPromoteLocked(force)
	a.last = res
	return res
}

func (a *Adapter) tryPromoteLocked(force bool) Result {
	pol := a.cfg.Policy
	root := persist.BundleRoot(a.cfg.Dir)
	res := Result{Generation: a.generation}

	obss, shadow := a.acc.snapshot()
	res.Observed = len(obss)
	if len(obss) == 0 || (!force && len(obss) < pol.MinUtts) {
		res.Outcome = OutcomeNoData
		return res
	}

	// The serving side of every comparison is the generation the commit
	// records designate on disk — the same bundle a crash-restarted
	// process would load.
	serving, manifest, info, err := persist.ResolveBundle(a.cfg.Dir)
	if err != nil {
		res.Outcome, res.Err = OutcomeTrainErr, err.Error()
		return res
	}

	// Stage 1: self-training pass (off the request path; a fault or
	// panic here has touched nothing on disk).
	var cand *persist.Bundle
	var stats TrainStats
	err = guard(func() error {
		if err := faultinject.At(SiteTrain); err != nil {
			return err
		}
		var err error
		cand, stats, err = buildCandidate(a.set, serving, obss, pol)
		return err
	})
	res.Selected = stats.Selected
	if err != nil {
		if errors.Is(err, ErrNoSelection) {
			res.Outcome = OutcomeNoVotes
			return res
		}
		obs.Inc("adapt.train_failures")
		res.Outcome, res.Err = OutcomeTrainErr, err.Error()
		a.logf("training pass failed (serving model untouched): %v", err)
		return res
	}

	// Stage the candidate as a complete generation directory. Until a
	// record commits it, nothing resolves it.
	gen, err := root.Next()
	name := persist.GenDirName(gen)
	genDir := filepath.Join(a.cfg.Dir, name)
	m := *manifest
	m.AdaptGeneration = gen
	if err == nil {
		err = persist.SaveBundle(genDir, cand, m)
	}
	if err != nil {
		obs.Inc("adapt.train_failures")
		res.Outcome, res.Err = OutcomeSaveErr, err.Error()
		return res
	}
	res.Generation = gen

	quarantine := func(outcome, msg string) Result {
		a.vetoes++
		obs.Inc("adapt.vetoes")
		if q, qerr := root.Quarantine(name); qerr == nil {
			a.quarantined++
			obs.Inc("adapt.quarantined")
			a.logf("candidate gen %d %s — quarantined as %s: %s", gen, outcome, q, msg)
		} else {
			a.logf("candidate gen %d %s (quarantine failed: %v): %s", gen, outcome, qerr, msg)
		}
		res.Outcome, res.Err, res.Generation = outcome, msg, a.generation
		return res
	}

	// Gate 1: golden-score canary on the artifact that would actually
	// serve — reloaded from disk, compared bit-exactly against the
	// in-memory candidate and bounded against the pinned referee scores.
	memRef := refereeScores(cand, a.set)
	var diskCand *persist.Bundle
	var diskMan *persist.Manifest
	err = guard(func() error {
		if err := faultinject.At(SiteCanary); err != nil {
			return err
		}
		disk, dm, lerr := persist.LoadBundle(genDir)
		if lerr != nil {
			return lerr
		}
		drift, cerr := canaryCompare(memRef, refereeScores(disk, a.set), a.set, pol.CanaryTol)
		res.CanaryMax = drift
		diskCand, diskMan = disk, dm
		return cerr
	})
	if err != nil {
		obs.Inc("adapt.canary_failures")
		return quarantine(OutcomeCanaryVeto, err.Error())
	}

	// Gate 2: EER on the frozen holdout must not regress past budget.
	candEER := holdoutEER(diskCand, a.set) * 100
	servEER := holdoutEER(serving, a.set) * 100
	res.CandEER, res.ServEER = candEER, servEER
	if candEER > servEER+pol.EERBudget {
		return quarantine(OutcomeEERVeto,
			fmt.Sprintf("holdout EER %.2f%% vs serving %.2f%% exceeds the %.2f pp budget", candEER, servEER, pol.EERBudget))
	}

	// Gate 3: shadow scoring over the sampled live slice.
	div, sampled := shadowDivergence(diskCand, shadow)
	res.ShadowDiv, res.ShadowN = div, sampled
	if div > pol.ShadowBound {
		return quarantine(OutcomeShadowVeto,
			fmt.Sprintf("shadow divergence %.4f over %d sampled utterances exceeds bound %.4f", div, sampled, pol.ShadowBound))
	}

	// Commit point: the record naming the candidate, the generation it
	// replaces as last-known-good, and its bundle's SHA-256. A fault here
	// models a crash mid-promotion — the staged generation is quarantined
	// and the previous record keeps serving.
	err = guard(func() error {
		if err := faultinject.At(SitePromote); err != nil {
			return err
		}
		return persist.CommitBundle(root, gen, name, diskMan.BundleSHA256, info.DirName, SitePromote)
	})
	if err != nil {
		obs.Inc("adapt.promote_failures")
		return quarantine(OutcomePromoteErr, err.Error())
	}

	// Hot swap through the serving process's reloader. If the swap is
	// refused (breaker open), commit the previous state again: the gates
	// passed, but a promotion the process cannot pick up must not outlive
	// the attempt.
	if err := a.cfg.Swap(); err != nil {
		if next, nerr := root.Next(); nerr == nil {
			_ = persist.CommitBundle(root, next, info.DirName, manifest.BundleSHA256, info.LastKnownGood, "")
		}
		obs.Inc("adapt.promote_failures")
		return quarantine(OutcomeSwapErr, fmt.Sprintf("hot swap refused: %v", err))
	}

	a.generation, a.lkg = gen, info.DirName
	a.promotions++
	obs.Inc("adapt.promotions")
	obs.SetGauge("adapt.generation", float64(gen))
	a.acc.reset()
	if err := root.Prune(pol.Keep, name, info.DirName); err != nil {
		a.logf("prune after promotion: %v", err)
	}
	a.logf("promoted generation %d (selected %d/%d, EER %.2f%% vs %.2f%%, shadow %.4f/%d)",
		gen, stats.Selected, len(obss), candEER, servEER, div, sampled)

	// Post-promotion canary probe, immediately: the serving process must
	// now reproduce the pinned referee scores within tolerance. A
	// failure rolls straight back to last-known-good.
	if err := a.probeLocked(); err != nil {
		res.Promoted = false
		res.Outcome = OutcomeRolledBack
		res.Err = err.Error()
		res.Generation = a.generation
		return res
	}
	res.Promoted = true
	res.Outcome = OutcomePromoted
	res.Generation = gen
	return res
}

// probeLocked scores the live serving bundle against the pinned referee
// set (through the adapt.canary site) and rolls back to last-known-good
// on failure. Returns the probe error (nil when healthy).
func (a *Adapter) probeLocked() error {
	err := guard(func() error {
		if err := faultinject.At(SiteCanary); err != nil {
			return err
		}
		cur := a.cfg.Current()
		if cur == nil {
			return fmt.Errorf("adapt: probe: no model loaded")
		}
		_, cerr := canaryCompare(nil, refereeScores(cur, a.set), a.set, a.cfg.Policy.CanaryTol)
		return cerr
	})
	if err == nil {
		return nil
	}
	a.logf("post-promotion canary failed, rolling back: %v", err)
	if rerr := a.rollbackLocked("probe: " + err.Error()); rerr != nil {
		a.logf("automatic rollback failed: %v", rerr)
		return fmt.Errorf("%v (rollback failed: %v)", err, rerr)
	}
	return err
}

// Probe runs the post-promotion canary once — the background loop calls
// it every Policy.Probe while a promoted generation serves; exposed for
// the serve layer's admin surface and tests. A base (generation-0)
// process is not probed: the pinned scores are its own export.
func (a *Adapter) Probe() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.generation == 0 {
		return nil
	}
	return a.probeLocked()
}

// Rollback restores last-known-good: one commit record naming it plus a
// hot swap. One command, no retraining, no byte movement. The abandoned
// generation is quarantined.
func (a *Adapter) Rollback(reason string) (Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	err := a.rollbackLocked(reason)
	res := a.last
	return res, err
}

func (a *Adapter) rollbackLocked(reason string) error {
	root := persist.BundleRoot(a.cfg.Dir)
	_, _, info, err := persist.ResolveBundle(a.cfg.Dir)
	if err != nil {
		return fmt.Errorf("adapt: rollback: %w", err)
	}
	target := info.LastKnownGood
	if target == "" {
		target = persist.BaseGenDir
	}
	if info.DirName == target {
		return fmt.Errorf("adapt: rollback: already serving %s (nothing to roll back)", target)
	}
	tgen, _ := persist.ParseGeneration(target)
	lkg := ""
	if target != persist.BaseGenDir {
		// The restored generation's own fallback is the base bundle.
		lkg = persist.BaseGenDir
	}
	next, err := root.Next()
	if err == nil {
		err = persist.CommitBundle(root, next, target, "", lkg, "")
	}
	if err != nil {
		return fmt.Errorf("adapt: rollback: %w", err)
	}
	if err := a.cfg.Swap(); err != nil {
		return fmt.Errorf("adapt: rollback swap: %w", err)
	}
	if info.DirName != persist.BaseGenDir {
		if _, qerr := root.Quarantine(info.DirName); qerr == nil {
			a.quarantined++
			obs.Inc("adapt.quarantined")
		}
	}
	a.generation, a.lkg = tgen, lkg
	a.rollbacks++
	obs.Inc("adapt.rollbacks")
	obs.SetGauge("adapt.generation", float64(tgen))
	a.acc.reset()
	a.last = Result{Outcome: OutcomeRolledBack, Generation: tgen, Err: reason}
	a.logf("rolled back to %s (generation %d): %s", target, tgen, reason)
	return nil
}

// Run drives the background loop until ctx is cancelled: a training
// attempt every Cadence, and — while a promoted generation serves — a
// canary probe every Probe (so a bad promotion is rolled back within one
// probe interval even if nothing else happens).
func (a *Adapter) Run(ctx context.Context) {
	train := time.NewTicker(a.cfg.Policy.Cadence)
	probe := time.NewTicker(a.cfg.Policy.Probe)
	defer train.Stop()
	defer probe.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-train.C:
			if res := a.TryPromote(false); res.Outcome != OutcomeNoData {
				a.logf("pass: %s (gen %d)", res.Outcome, res.Generation)
			}
		case <-probe.C:
			_ = a.Probe()
		}
	}
}
