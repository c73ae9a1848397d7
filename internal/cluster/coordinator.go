package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// CoordinatorConfig sizes the scatter–gather coordinator: the serving
// config every lred role shares, plus the fleet-only settings. Zero
// values select the defaults noted per field.
type CoordinatorConfig struct {
	// Serve is the serving config. ModelDir is the exported bundle
	// directory (required): the coordinator keeps its languages, fusion
	// backend and front-end geometry, and the cascade model when Cascade
	// is on, and pushes its sealed bundle file to every worker; it keeps
	// no scoring weights.
	// RequestTimeout, DrainTimeout, MaxBodyBytes, DisableTracing and
	// Cascade act as on the standalone daemon; with Cascade on, tier 1
	// runs on the coordinator, and a high-margin request is answered
	// without a single shard RPC (workers keep neither the cascade nor
	// fusion). Reload governs the bundle pushes (Retries, BaseBackoff,
	// MaxBackoff) and the per-peer circuit breakers (TripAfter,
	// Cooldown). QueueDepth, Adapt and WaitForModel are unused, and the
	// access log stays off.
	Serve serve.Config
	// Peers are the worker addresses (host:port or http:// URLs), one
	// shard per worker (required, at least one).
	Peers []string
	// ShardTimeout is the per-shard RPC deadline; a shard that misses it
	// degrades the request like a failed front-end (1 s).
	ShardTimeout time.Duration
	// ProbeInterval paces the repair loop that health-checks workers and
	// re-pushes the current generation to ones that restarted (2 s).
	ProbeInterval time.Duration
	// Transport overrides the HTTP transport to workers (tests route to
	// in-process handlers; nil = http.DefaultTransport).
	Transport http.RoundTripper

	// clock substitutes the time source in tests (nil: real time).
	clock serve.Clock
}

func (c *CoordinatorConfig) setDefaults() {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.clock == nil {
		c.clock = serve.RealClock{}
	}
}

// fleetPlan is one immutable routing generation: the coordinator model
// it routes (weightless; its Image is the export every worker was
// pushed), the front-end → peer routing table, and each peer's
// front-end list. Swapped atomically only after every worker acked gen,
// so a request admitted under a plan always finds workers that can serve
// its generation (or degrades).
type fleetPlan struct {
	c     *Coordinator
	gen   int64
	model *serve.Model
	route map[string]int // front-end name → index into c.peers
	fes   [][]string     // per peer, its assigned front-ends in bundle order
}

// Coordinator is the scatter–gather front of the fleet: a serve.Server
// whose scoring step fans each request out to the shard workers, with
// /clusterz mounted in front. It serves the exact standalone scoring
// API; see the package comment for the contract.
type Coordinator struct {
	node
	cfg   CoordinatorConfig
	reg   *serve.Registry
	peers []*peer

	plan atomic.Pointer[fleetPlan]
	// distMu serializes reloads, distributions and repair pushes, and so
	// guards the open bundle images of the registry's and the plan's
	// models (see retire).
	distMu sync.Mutex
}

// NewCoordinator loads the bundle and prepares the fleet clients.
// No distribution happens yet — call Distribute (Run's repair loop also
// keeps retrying it), and the coordinator answers 503 on scoring until
// the first distribution lands on every worker.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.setDefaults()
	cfg.Serve.AccessLog = nil // the coordinator keeps its access log off
	if cfg.Serve.ModelDir == "" {
		return nil, fmt.Errorf("cluster: no model directory configured")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator has no worker peers")
	}
	c := &Coordinator{cfg: cfg}
	// Coordinator-side metrics and spans live under cluster.* (the
	// workers' serve.* names stay theirs, so a co-resident bench or test
	// keeps the two tiers apart in one obs registry).
	srv, err := serve.NewWithRole(cfg.Serve, "cluster", (*fleetRole)(c))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.reg = srv.NewRoutingRegistry()
	if _, err := c.reg.Reload(); err != nil {
		return nil, fmt.Errorf("cluster: initial model load: %w", err)
	}
	for _, addr := range cfg.Peers {
		c.peers = append(c.peers, newPeer(addr, cfg.Serve.Reload, cfg.Transport, cfg.clock))
	}
	if !cfg.Serve.DisableTracing {
		// Like the request path's, the shard RPC metrics keep rolling
		// windows only while tracing is on.
		obsRPCErrors.KeepWindow()
		for _, p := range c.peers {
			p.rpcHist.KeepWindow()
		}
	}
	c.node = newNode(srv, srv.Handler())
	c.mux.HandleFunc("/clusterz", c.handleClusterz)
	obs.SetGauge("cluster.peers", float64(len(c.peers)))
	return c, nil
}

// Plan returns the active routing generation (0 before the first
// successful distribution).
func (c *Coordinator) Plan() int64 {
	if pl := c.plan.Load(); pl != nil {
		return pl.gen
	}
	return 0
}

// Distribute pushes the current bundle to every worker at once, each
// with its assignment (retry/backoff and breaker per peer), and — only
// when every worker acked the new generation — atomically swaps the
// routing plan. On any failure the previous plan keeps routing and the
// error names the first failing peer in peer order; the pushes that did
// land leave those workers on the unrouted generation, answering 409
// until the repair loop walks them back.
func (c *Coordinator) Distribute(ctx context.Context) error {
	c.distMu.Lock()
	defer c.distMu.Unlock()
	return c.distribute(ctx)
}

// distribute is Distribute under distMu.
func (c *Coordinator) distribute(ctx context.Context) error {
	t0 := time.Now()
	defer func() { obs.Observe("cluster.distribute.seconds", time.Since(t0).Seconds()) }()
	pl := c.newPlan(c.reg.Current())
	all := make([]int, len(c.peers))
	for i := range all {
		all[i] = i
	}
	for i, err := range c.pushAll(ctx, pl, all, c.cfg.Serve.Reload) {
		if err != nil {
			obs.Inc("cluster.distribute.failures")
			return fmt.Errorf("cluster: distribute generation %d to %s: %w", pl.gen, c.peers[i].addr, err)
		}
	}
	if old := c.plan.Swap(pl); old != nil {
		c.retire(old.model)
	}
	obs.Inc("cluster.distributions")
	obs.SetGauge("cluster.generation", float64(pl.gen))
	return nil
}

// newPlan routes model m's front-ends round-robin across the peers, at
// generation m.Version.
func (c *Coordinator) newPlan(m *serve.Model) *fleetPlan {
	pl := &fleetPlan{c: c, gen: m.Version, model: m, route: make(map[string]int, len(m.Manifest.FrontEnds))}
	pl.fes = Assign(m.Manifest.FrontEnds, len(c.peers))
	for i, fes := range pl.fes {
		for _, fe := range fes {
			pl.route[fe] = i
		}
	}
	return pl
}

// retire closes the bundle image of a model that neither the registry
// nor the plan holds any more; distMu is held.
func (c *Coordinator) retire(m *serve.Model) {
	if pl := c.plan.Load(); m == c.reg.Current() || (pl != nil && m == pl.model) {
		return
	}
	m.Image.Close()
}

// pushAll pushes the peers listed in idx the plan's image and their
// assignments concurrently, each push with its own retry loop (under pol)
// and breaker, and returns once every push has finished; errs[k] is peer
// idx[k]'s outcome. No push cancels another, so every reachable peer ends
// on the pushed generation.
func (c *Coordinator) pushAll(ctx context.Context, pl *fleetPlan, idx []int, pol serve.ReloadPolicy) (errs []error) {
	errs = make([]error, len(idx))
	var wg sync.WaitGroup
	for k, i := range idx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[k] = c.peers[i].push(ctx, pl.manifest(i), pl.model.Image, pol)
		}()
	}
	wg.Wait()
	return errs
}

// manifest is peer i's push manifest: the export's, pinning the image's
// SHA-256, stamped with the plan's generation, and listing the peer's
// assignment (with its geometry) as the front-ends the worker keeps.
// Fusion and the cascade stay coordinator-side.
func (pl *fleetPlan) manifest(i int) persist.Manifest {
	mf := *pl.model.Manifest
	mf.ClusterGeneration = pl.gen
	mf.BundleSHA256 = pl.model.Image.SHA256()
	mf.FrontEnds = pl.fes[i]
	mf.FrontEndDims = nil
	for _, d := range pl.model.Manifest.FrontEndDims {
		if slices.Contains(pl.fes[i], d.Name) {
			mf.FrontEndDims = append(mf.FrontEndDims, d)
		}
	}
	mf.Fusion, mf.Cascade = false, ""
	return mf
}

// repair is the self-healing tick: with no plan yet it retries the
// initial distribution; with a plan it probes each worker's /clusterz
// and re-pushes the current generation, through Distribute's fan-out, to
// every worker that restarted empty or is serving another generation. A
// healthy probe (or successful re-push) closes the peer's breaker.
func (c *Coordinator) repair(ctx context.Context) {
	pl := c.plan.Load()
	if pl == nil {
		if err := c.Distribute(ctx); err != nil {
			obs.Inc("cluster.repair.failures")
		}
		return
	}
	var stale []int
	for i, p := range c.peers {
		pctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
		var cz Clusterz
		err := p.rpc(pctx, "/clusterz", nil, nil, &cz)
		cancel()
		// A failed probe leaves the peer down; the breaker already
		// accounted it.
		if err == nil && cz.Generation != pl.gen {
			stale = append(stale, i)
		}
	}
	if len(stale) == 0 {
		return
	}
	c.distMu.Lock()
	defer c.distMu.Unlock()
	if c.plan.Load() != pl {
		return // a distribution since the probes pushed every worker
	}
	// The stale workers are off-plan: restarted with an empty spool,
	// missed the last distribution, or took a push from a distribution
	// that failed. Re-push the PLAN's image — not reg.Current()'s, which
	// may be a newer bundle whose distribution never completed; pushing
	// that content under the plan generation would be exactly the
	// mixed-generation fusion this subsystem exists to prevent. The plan
	// holds its file open, so a re-export into ModelDir since does not
	// reach the workers either.
	pctx, cancel := context.WithTimeout(ctx, c.srv.Config().RequestTimeout)
	defer cancel()
	once := c.cfg.Serve.Reload
	once.Retries = 0 // the next tick is the retry
	for _, err := range c.pushAll(pctx, pl, stale, once) {
		if err != nil {
			obs.Inc("cluster.repair.failures")
		} else {
			obs.Inc("cluster.repair.repushes")
		}
	}
}

// Reload reloads the bundle from disk and redistributes it; the
// routing plan only advances when every worker acked the new
// generation. It returns the active generation (SIGHUP parity with the
// standalone daemon's hot reload; POST /-/reload runs the same path).
func (c *Coordinator) Reload(ctx context.Context) (int64, error) {
	_, _, err := (*fleetRole)(c).Reload(ctx)
	return c.Plan(), err
}

func (c *Coordinator) handleClusterz(w http.ResponseWriter, r *http.Request) {
	cz := Clusterz{Role: "coordinator"}
	pl := c.plan.Load()
	if pl != nil {
		cz.Generation = pl.gen
		cz.ModelVersion = pl.model.Version
		cz.FrontEnds = pl.model.Manifest.FrontEnds
	}
	for i, p := range c.peers {
		var fes []string
		if pl != nil {
			fes = pl.fes[i]
		}
		cz.Peers = append(cz.Peers, p.status(fes))
	}
	writeJSON(w, http.StatusOK, cz)
}

// fleetRole is the coordinator's serve.Role: requests pin the active routing
// plan (never reg.Current(), which may hold a bundle whose distribution
// has not completed), reloads redistribute, and the background loop is
// the repair tick.
type fleetRole Coordinator

func (f *fleetRole) Resolve() (*serve.Pin, error) {
	pl := f.plan.Load()
	if pl == nil {
		return nil, errors.New("fleet not yet distributed")
	}
	return &serve.Pin{Model: pl.model, Generation: pl.gen, Score: pl.score}, nil
}

func (f *fleetRole) Ready(p *serve.Pin) (any, error) {
	m := p.Model
	return map[string]any{
		"status":     "ready",
		"generation": p.Generation,
		"peers":      len(f.peers),
		"front_ends": m.Manifest.FrontEnds,
		"languages":  len(m.Bundle.Languages),
	}, nil
}

func (f *fleetRole) Describe(meta map[string]string) {
	meta["role"] = "coordinator"
	pl := f.plan.Load()
	if pl == nil {
		return
	}
	meta["cluster_generation"] = fmt.Sprintf("%d", pl.gen)
	meta["model_version"] = fmt.Sprintf("%d", pl.model.Version)
	for i, p := range f.peers {
		meta["shard."+p.addr] = strings.Join(pl.fes[i], ",")
	}
}

// Reload reloads the bundle (reg.Reload, no reload breaker) and
// redistributes it. A bundle that fails to load answers 500, a
// distribution that fails answers 503; either way the previous plan
// keeps routing.
func (f *fleetRole) Reload(ctx context.Context) (any, int, error) {
	c := (*Coordinator)(f)
	c.distMu.Lock()
	defer c.distMu.Unlock()
	prev := c.reg.Current()
	if _, err := c.reg.Reload(); err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("reload failed (previous bundle still active): %w", err)
	}
	c.retire(prev)
	if err := c.distribute(ctx); err != nil {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("distribution failed (previous plan still routing): %w", err)
	}
	pl := c.plan.Load()
	return map[string]any{"generation": pl.gen, "manifest": pl.model.Manifest}, http.StatusOK, nil
}

// Loop ticks the repair loop every ProbeInterval until ctx is done.
func (f *fleetRole) Loop(ctx context.Context) {
	c := (*Coordinator)(f)
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.cfg.clock.After(c.cfg.ProbeInterval):
			c.repair(ctx)
		}
	}
}

// shardCall is one peer's cut of a request: the sub-request carrying, per
// utterance, only the front-ends that peer owns; uttIdx maps its
// utterances back to request positions.
type shardCall struct {
	p      *peer
	sub    serve.BatchRequest
	uttIdx []int
	fes    [][]string // per sub-utterance front-end subset
}

// score is the fleet's scoring step. Each utterance's front-ends are
// grouped by owning peer; each peer gets one RPC for its cut of the whole
// request (/v1/score for a single request, /v1/score/batch for a batch),
// and the shard rows are gathered back per utterance. Degradation stays
// per utterance end to end: a peer-level failure fails that peer's
// front-ends for its utterances, and a worker-side per-utterance
// degradation degrades exactly the utterances it named.
func (pl *fleetPlan) score(ctx context.Context, sc *serve.Scoring) {
	calls := make([]*shardCall, len(pl.c.peers))
	for i := range sc.Utts {
		u := &sc.Utts[i]
		byPeer, err := pl.planShards(u.Req)
		if err != nil {
			u.Err, u.Status = err, http.StatusBadRequest
			continue
		}
		u.Scores, u.FrontEndErrs = make(map[int][]float64), make(map[int]error)
		for k, fes := range byPeer {
			if len(fes) == 0 {
				continue
			}
			if calls[k] == nil {
				calls[k] = &shardCall{p: pl.c.peers[k]}
			}
			call := calls[k]
			sub := serve.ScoreRequest{ID: u.Req.ID, FrontEnds: make(map[string]serve.FrontEndInput, len(fes))}
			for _, fe := range fes {
				sub.FrontEnds[fe] = u.Req.FrontEnds[fe]
			}
			call.sub.Utterances = append(call.sub.Utterances, sub)
			call.uttIdx = append(call.uttIdx, i)
			call.fes = append(call.fes, fes)
		}
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, call := range calls {
		if call == nil {
			continue
		}
		wg.Add(1)
		go func(call *shardCall) {
			defer wg.Done()
			results, err := pl.scatter(ctx, sc, call)
			mu.Lock()
			defer mu.Unlock()
			pl.gather(sc, call, results, err)
		}(call)
	}
	wg.Wait()

	for i := range sc.Utts {
		if u := &sc.Utts[i]; u.Err == nil && len(u.Scores) == 0 {
			u.Err, u.Status = fmt.Errorf("all shards failed: %v", firstErr(u.FrontEndErrs)), http.StatusServiceUnavailable
		}
	}
}

// planShards groups a request's front-ends by owning peer index,
// validating names against the plan's model.
func (pl *fleetPlan) planShards(req *serve.ScoreRequest) ([][]string, error) {
	if len(req.FrontEnds) == 0 {
		return nil, errors.New("request names no front-ends")
	}
	byPeer := make([][]string, len(pl.c.peers))
	for name := range req.FrontEnds {
		k, ok := pl.route[name]
		if !ok {
			return nil, fmt.Errorf("unknown front-end %q (model has %v)", name, pl.model.Manifest.FrontEnds)
		}
		byPeer[k] = append(byPeer[k], name)
	}
	return byPeer, nil
}

// scatter runs one peer's RPC under the shard deadline, with an
// rpc.shard child span whose span id becomes the traceparent the worker
// continues — /tracez then shows the coordinator→shard subtree on both
// sides of the hop. It returns one result per sub-utterance.
func (pl *fleetPlan) scatter(ctx context.Context, sc *serve.Scoring, call *shardCall) ([]serve.ScoreResult, error) {
	ctx, cancel := context.WithTimeout(ctx, pl.c.cfg.ShardTimeout)
	defer cancel()
	var sp *obs.Span
	var traceparent string
	if sc.Root != nil {
		sp = sc.Root.StartChild("rpc.shard")
		sp.SetLabel("shard", call.p.addr)
		if sc.Batch {
			sp.SetAttr("utterances", float64(len(call.sub.Utterances)))
		}
		spanID := obs.NewSpanID()
		sp.SetLabel("span_id", spanID)
		traceparent = obs.Traceparent(sc.TraceID, spanID)
	}
	results, err := call.p.score(ctx, pl.gen, traceparent, &call.sub, sc.Batch)
	if sp != nil {
		if err != nil {
			sp.SetLabel("error", err.Error())
		}
		sp.End()
	}
	return results, err
}

var obsRPCErrors = obs.GetCounter("cluster.rpc.errors")

// gather folds one peer's RPC outcome into its utterances' rows,
// AssembleResult's input maps: scores by bundle front-end index, and
// per-front-end errors for everything the shard failed to score (peer
// down, deadline missed, breaker open, generation conflict, or the
// worker's own per-front-end degradation). A single request a worker
// rejected with 400 fails whole with the worker's message, as it would
// on a standalone daemon.
func (pl *fleetPlan) gather(sc *serve.Scoring, call *shardCall, results []serve.ScoreResult, err error) {
	if se := rejected(err); se != nil && !sc.Batch {
		u := &sc.Utts[call.uttIdx[0]]
		u.Err, u.Status = errors.New(se.msg), http.StatusBadRequest
		return
	}
	if err != nil {
		obsRPCErrors.Inc()
	}
	for k, i := range call.uttIdx {
		u := &sc.Utts[i]
		for _, name := range call.fes[k] {
			q, _ := pl.model.FrontEndIndex(name) // routed names are the model's
			if err != nil {
				u.FrontEndErrs[q] = fmt.Errorf("shard %s: %w", call.p.addr, err)
				continue
			}
			res := &results[k]
			if row, ok := res.Scores[name]; ok {
				u.Scores[q] = row
				continue
			}
			msg := res.FrontEndErrors[name]
			if msg == "" {
				if msg = res.Error; msg == "" {
					msg = "no score returned"
				}
			}
			u.FrontEndErrs[q] = fmt.Errorf("shard %s: %s", call.p.addr, msg)
		}
	}
}

// firstErr is a representative shard error for an all-lost utterance
// (deterministic: the lowest front-end index).
func firstErr(errs map[int]error) error {
	first := -1
	for q := range errs {
		if first < 0 || q < first {
			first = q
		}
	}
	return errs[first]
}
