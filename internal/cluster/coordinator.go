package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// CoordinatorConfig sizes the scatter–gather coordinator. Zero values
// select the defaults noted per field.
type CoordinatorConfig struct {
	// ModelDir is the full bundle directory (required); the coordinator
	// owns the complete battery and the fusion backend, and splits
	// per-worker shard bundles out of it.
	ModelDir string
	// Peers are the worker addresses (host:port or http:// URLs), one
	// shard per worker (required, at least one).
	Peers []string
	// ShardTimeout is the per-shard RPC deadline; a shard that misses it
	// degrades the request like a failed front-end (1 s).
	ShardTimeout time.Duration
	// RequestTimeout is the whole-request deadline (5 s).
	RequestTimeout time.Duration
	// ProbeInterval paces the repair loop that health-checks workers and
	// re-pushes the current generation to ones that restarted (2 s).
	ProbeInterval time.Duration
	// Breaker governs the per-peer circuit breakers.
	Breaker serve.BreakerPolicy
	// PushRetries/PushBackoff govern bundle-distribution retries per
	// worker (2 extra attempts, 100 ms doubling up to
	// serve.DefaultMaxBackoff) — the same retry loop as model reloads.
	PushRetries int
	PushBackoff time.Duration
	// DrainTimeout bounds graceful shutdown (10 s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies (32 MiB).
	MaxBodyBytes int64
	// DisableTracing turns off request spans and the /tracez buffer.
	DisableTracing bool
	// Cascade opts the coordinator into the two-tier cascade fast path:
	// tier 1 runs on the coordinator (which owns the full bundle, cascade
	// model included), and a high-margin request is answered without
	// scattering a single shard RPC. Workers never see the cascade —
	// shard bundles are split without it, like fusion.
	Cascade serve.CascadeConfig
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
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.PushRetries == 0 {
		c.PushRetries = 2
	}
	if c.PushRetries < 0 {
		c.PushRetries = 0
	}
	if c.PushBackoff <= 0 {
		c.PushBackoff = 100 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.clock == nil {
		c.clock = serve.RealClock{}
	}
}

// fleetPlan is one immutable routing generation: the coordinator model
// it was split from, the front-end → peer routing table, and each peer's
// front-end list. Swapped atomically only after every worker acked its
// shard bundle for gen, so a request admitted under a plan always finds
// workers that can serve its generation (or degrades).
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

	plan   atomic.Pointer[fleetPlan]
	distMu sync.Mutex // serializes Distribute/repair
}

// NewCoordinator loads the full bundle and prepares the fleet clients.
// No distribution happens yet — call Distribute (Run's repair loop also
// keeps retrying it), and the coordinator answers 503 on scoring until
// the first distribution lands on every worker.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.setDefaults()
	if cfg.ModelDir == "" {
		return nil, fmt.Errorf("cluster: no model directory configured")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator has no worker peers")
	}
	c := &Coordinator{cfg: cfg, reg: serve.NewRegistry(cfg.ModelDir)}
	if _, err := c.reg.Reload(); err != nil {
		return nil, fmt.Errorf("cluster: initial model load: %w", err)
	}
	for _, addr := range cfg.Peers {
		c.peers = append(c.peers, newPeer(addr, cfg.Breaker, cfg.Transport, cfg.clock))
	}
	// Coordinator-side metrics and spans live under cluster.* (the
	// workers' serve.* names stay theirs, so a co-resident bench or test
	// keeps the two tiers apart in one obs registry). The access log
	// stays off.
	srv, err := serve.NewWithRole(serve.Config{
		RequestTimeout: cfg.RequestTimeout,
		DrainTimeout:   cfg.DrainTimeout,
		MaxBodyBytes:   cfg.MaxBodyBytes,
		DisableTracing: cfg.DisableTracing,
		Cascade:        cfg.Cascade,
	}, "cluster", (*fleetRole)(c))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
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

// Distribute splits the current bundle into per-worker shard bundles,
// pushes each to its worker (retry/backoff per peer), and — only when
// every worker acked the new generation — atomically swaps the routing
// plan. On any failure the previous plan keeps routing.
func (c *Coordinator) Distribute(ctx context.Context) error {
	c.distMu.Lock()
	defer c.distMu.Unlock()
	m := c.reg.Current()
	gen := m.Version
	shards, err := c.splitShards(m, gen)
	if err != nil {
		return err
	}
	pl := &fleetPlan{c: c, gen: gen, model: m, route: make(map[string]int, len(m.Manifest.FrontEnds))}
	for i, p := range c.peers {
		if _, err := p.push(ctx, shards[i].manifest, shards[i].sealed, c.cfg.PushRetries, c.cfg.PushBackoff); err != nil {
			obs.Inc("cluster.distribute.failures")
			return fmt.Errorf("cluster: distribute generation %d to %s: %w", gen, p.addr, err)
		}
		pl.fes = append(pl.fes, shards[i].fes)
		for _, fe := range shards[i].fes {
			pl.route[fe] = i
		}
	}
	c.plan.Store(pl)
	obs.Inc("cluster.distributions")
	obs.SetGauge("cluster.generation", float64(gen))
	return nil
}

// shard is one worker's cut of the bundle, sealed for the wire.
type shard struct {
	fes      []string
	manifest persist.Manifest
	sealed   []byte
}

// splitShards cuts the bundle round-robin across the peers. Fusion and
// the cascade model are stripped — only the coordinator fuses, and tier
// 1 runs coordinator-side before any shard RPC — and each shard manifest
// is stamped with the generation and the parent bundle's SHA-256.
func (c *Coordinator) splitShards(m *serve.Model, gen int64) ([]shard, error) {
	assign := Assign(m.Manifest.FrontEnds, len(c.peers))
	byName := make(map[string]persist.FrontEndModel, len(m.Bundle.FrontEnds))
	for _, fe := range m.Bundle.FrontEnds {
		byName[fe.Name] = fe
	}
	shards := make([]shard, len(c.peers))
	for i, fes := range assign {
		sub := &persist.Bundle{Languages: m.Bundle.Languages}
		for _, name := range fes {
			fe, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("cluster: manifest front-end %q missing from bundle", name)
			}
			sub.FrontEnds = append(sub.FrontEnds, fe)
		}
		if err := sub.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sealed, err := persist.MarshalSealed(sub)
		if err != nil {
			return nil, err
		}
		mf := *m.Manifest
		mf.ShardOf = m.Manifest.BundleSHA256
		mf.ClusterGeneration = gen
		mf.BundleSHA256 = "" // recomputed by the worker's SaveBundle
		// Restamp the contents summary for the shard's cut: fresh slices
		// first (the copy above shares backing arrays with the parent
		// manifest), then the sub-bundle's own front-end list and
		// feature-space geometry — the worker checks its loaded bundle
		// against these dims, so they must describe the shard, not the
		// parent. Fusion/cascade are stripped with the bundle: shards
		// escalate nothing, tier 1 and fusion are coordinator-only.
		mf.FrontEnds = nil
		mf.FrontEndDims = nil
		mf.StampContents(sub)
		shards[i] = shard{fes: fes, manifest: mf, sealed: sealed}
	}
	return shards, nil
}

// repair is the self-healing tick: with no plan yet it retries the
// initial distribution; with a plan it probes each worker's /clusterz
// and re-pushes the current generation to any worker that restarted
// empty or is serving an older generation. A healthy probe (or
// successful re-push) closes the peer's breaker.
func (c *Coordinator) repair(ctx context.Context) {
	pl := c.plan.Load()
	if pl == nil {
		if err := c.Distribute(ctx); err != nil {
			obs.Inc("cluster.repair.failures")
		}
		return
	}
	var shards []shard
	for i, p := range c.peers {
		pctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
		var cz Clusterz
		err := p.rpc(pctx, "/clusterz", nil, nil, &cz)
		cancel()
		if err != nil {
			continue // stays down; the breaker already accounted it
		}
		if cz.Generation == pl.gen {
			continue
		}
		// Worker is off-plan: restarted with an empty spool, missed the
		// last distribution, or took a push from a distribution that
		// failed partway. Re-push the shard split from the PLAN's pinned
		// model — not reg.Current(), which may already hold a newer bundle
		// whose distribution never completed; stamping that content with
		// the plan generation would be exactly the mixed-generation fusion
		// this subsystem exists to prevent.
		if shards == nil {
			var serr error
			if shards, serr = c.splitShards(pl.model, pl.gen); serr != nil {
				obs.Inc("cluster.repair.failures")
				return
			}
		}
		pctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		_, err = p.push(pctx, shards[i].manifest, shards[i].sealed, 0, c.cfg.PushBackoff)
		cancel()
		if err != nil {
			obs.Inc("cluster.repair.failures")
			continue
		}
		obs.Inc("cluster.repair.repushes")
	}
}

// Reload reloads the full bundle from disk and redistributes it; the
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

// Reload reloads the full bundle (reg.Reload, no reload breaker) and
// redistributes it. A bundle that fails to load answers 500, a
// distribution that fails answers 503; either way the previous plan
// keeps routing.
func (f *fleetRole) Reload(ctx context.Context) (any, int, error) {
	c := (*Coordinator)(f)
	if _, err := c.reg.Reload(); err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("reload failed (previous bundle still active): %w", err)
	}
	if err := c.Distribute(ctx); err != nil {
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
			pl.gather(sc.Utts, call, results, err)
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

var wobsShardFailed = obs.GetWindowCounter("cluster.rpc.errors")

// gather folds one peer's RPC outcome into its utterances' rows,
// AssembleResult's input maps: scores by bundle front-end index, and
// per-front-end errors for everything the shard failed to score (peer
// down, deadline missed, breaker open, generation conflict, or the
// worker's own per-front-end degradation).
func (pl *fleetPlan) gather(utts []serve.Utterance, call *shardCall, results []serve.ScoreResult, err error) {
	if err != nil {
		obs.Inc("cluster.rpc.errors")
		wobsShardFailed.Inc()
	}
	for k, i := range call.uttIdx {
		u := &utts[i]
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
