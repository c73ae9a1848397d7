package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cascade"
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
// it was split from and the front-end → peer routing table. Swapped
// atomically only after every worker acked its shard bundle for gen, so
// a request admitted under a plan always finds workers that can serve
// its generation (or degrades).
type fleetPlan struct {
	gen   int64
	model *serve.Model
	route map[string]*peer // front-end name → owning peer
}

// Coordinator is the scatter–gather front of the fleet. It serves the
// exact standalone scoring API; see the package comment for the
// contract.
type Coordinator struct {
	cfg   CoordinatorConfig
	reg   *serve.Registry
	peers []*peer
	mux   *http.ServeMux

	plan          atomic.Pointer[fleetPlan]
	traces        *obs.TraceBuffer
	draining      atomic.Bool
	distMu        sync.Mutex // serializes Distribute/repair
	cascadePolicy cascade.Policy
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
	if cfg.Cascade.Enabled {
		pol, err := cascade.ParsePolicy(cfg.Cascade.Margin)
		if err != nil {
			return nil, fmt.Errorf("cluster: cascade margin: %w", err)
		}
		c.cascadePolicy = pol
	}
	if _, err := c.reg.Reload(); err != nil {
		return nil, fmt.Errorf("cluster: initial model load: %w", err)
	}
	for _, addr := range cfg.Peers {
		c.peers = append(c.peers, newPeer(addr, cfg.Breaker, cfg.Transport, cfg.clock))
	}
	c.traces = obs.NewTraceBuffer(0, 0, 0)
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/v1/score", c.instrument("score", c.handleScore))
	c.mux.HandleFunc("/v1/score/batch", c.instrument("batch", c.handleScoreBatch))
	c.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	c.mux.HandleFunc("/readyz", c.handleReadyz)
	c.mux.HandleFunc("/metricsz", c.handleMetricsz)
	c.mux.HandleFunc("/tracez", c.handleTracez)
	c.mux.HandleFunc("/clusterz", c.handleClusterz)
	c.mux.HandleFunc("/-/reload", c.instrument("reload", c.handleReload))
	obs.SetGauge("cluster.peers", float64(len(c.peers)))
	return c, nil
}

// Handler returns the coordinator's HTTP handler tree.
func (c *Coordinator) Handler() http.Handler { return c.mux }

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
	for i, p := range c.peers {
		if _, err := p.push(ctx, shards[i].manifest, shards[i].sealed, c.cfg.PushRetries, c.cfg.PushBackoff); err != nil {
			obs.Inc("cluster.distribute.failures")
			return fmt.Errorf("cluster: distribute generation %d to %s: %w", gen, p.addr, err)
		}
		p.fes = shards[i].fes
	}
	route := make(map[string]*peer, len(m.Manifest.FrontEnds))
	for i, p := range c.peers {
		for _, fe := range shards[i].fes {
			route[fe] = p
		}
	}
	c.plan.Store(&fleetPlan{gen: gen, model: m, route: route})
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

// Run serves on l until ctx is cancelled, with the repair loop ticking
// in the background, then drains gracefully.
func (c *Coordinator) Run(ctx context.Context, l net.Listener) error {
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	go func() {
		for {
			select {
			case <-rctx.Done():
				return
			case <-c.cfg.clock.After(c.cfg.ProbeInterval):
				c.repair(rctx)
			}
		}
	}()
	hs := &http.Server{Handler: c.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(l) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	c.draining.Store(true)
	obs.SetGauge("cluster.draining", 1)
	dctx, cancel := context.WithTimeout(context.Background(), c.cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("cluster: shutdown: %w", err)
	}
	return nil
}

// ---- request handling ----

// Coordinator-side RED metrics live under cluster.http.* (the workers'
// serve.http.* names stay theirs, so a co-resident bench or test keeps
// the two tiers apart in one obs registry).
func (c *Coordinator) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := obs.GetCounter("cluster.http." + name + ".requests")
	lat := obs.GetHistogram("cluster.http." + name + ".seconds")
	wlat := obs.GetWindow("cluster.http." + name + ".seconds")
	errs := obs.GetCounter("cluster.http.errors")
	werrs := obs.GetWindowCounter("cluster.http.errors")
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		defer func() {
			d := time.Since(t0).Seconds()
			lat.Observe(d)
			if !c.cfg.DisableTracing {
				wlat.Observe(d)
			}
			if sw.status >= 500 {
				errs.Inc()
				if !c.cfg.DisableTracing {
					werrs.Inc()
				}
			}
		}()
		h(sw, r)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// coordTrace is the per-request tracing state (nil when tracing off).
type coordTrace struct {
	id     string
	parent string
	spanID string
	start  time.Time
	root   *obs.Span
}

// span returns the request's root span for child annotations (nil when
// tracing is off).
func (tr *coordTrace) span() *obs.Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

func (c *Coordinator) startTrace(w http.ResponseWriter, r *http.Request, endpoint string) *coordTrace {
	if c.cfg.DisableTracing {
		return nil
	}
	id, parent, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		id, parent = obs.NewTraceID(), ""
	}
	tr := &coordTrace{
		id:     id,
		parent: parent,
		spanID: obs.NewSpanID(),
		start:  time.Now(),
		root:   obs.NewSpan("cluster." + endpoint),
	}
	tr.root.SetLabel("trace_id", id)
	w.Header().Set("traceparent", obs.Traceparent(id, tr.spanID))
	return tr
}

func (c *Coordinator) finishTrace(tr *coordTrace, endpoint string, status int, degraded bool, surviving []string, errMsg string) {
	if tr == nil {
		return
	}
	dur := tr.root.End()
	c.traces.Add(&obs.TraceEntry{
		TraceID:      tr.id,
		SpanID:       tr.spanID,
		ParentSpanID: tr.parent,
		Endpoint:     endpoint,
		Start:        tr.start,
		DurationSec:  dur.Seconds(),
		Status:       status,
		Degraded:     degraded,
		Surviving:    surviving,
		Error:        errMsg,
		Root:         tr.root.Data(),
	})
}

func statusOf(w http.ResponseWriter) int {
	if sw, ok := w.(*statusWriter); ok {
		return sw.status
	}
	return http.StatusOK
}

// admit runs the common scoring-request checks and resolves the active
// plan, or writes the response and returns nil.
func (c *Coordinator) admit(w http.ResponseWriter, r *http.Request) *fleetPlan {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return nil
	}
	if c.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "coordinator is draining")
		return nil
	}
	pl := c.plan.Load()
	if pl == nil {
		writeError(w, http.StatusServiceUnavailable, "fleet not yet distributed")
		return nil
	}
	return pl
}

func (c *Coordinator) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// shardCall groups the front-ends of one request that live on one peer.
type shardCall struct {
	p   *peer
	fes []string
}

// planShards groups a request's front-ends by owning peer, validating
// names against the plan's model. The groups come out in routing-table
// (bundle) order via the peers slice, keeping scatter order stable.
func (c *Coordinator) planShards(pl *fleetPlan, req *serve.ScoreRequest) ([]shardCall, error) {
	byPeer := make(map[*peer][]string, len(c.peers))
	for name := range req.FrontEnds {
		p, ok := pl.route[name]
		if !ok {
			return nil, fmt.Errorf("unknown front-end %q (model has %v)", name, pl.model.Manifest.FrontEnds)
		}
		byPeer[p] = append(byPeer[p], name)
	}
	var calls []shardCall
	for _, p := range c.peers {
		if fes, ok := byPeer[p]; ok {
			calls = append(calls, shardCall{p: p, fes: fes})
		}
	}
	return calls, nil
}

// gather collects one request's per-front-end score rows across shard
// RPC outcomes into AssembleResult's input maps: scores by bundle
// front-end index, and per-front-end errors for everything a shard
// failed to score (peer down, deadline missed, breaker open, generation
// conflict, or the worker's own per-front-end degradation).
type gather struct {
	model  *serve.Model
	scores map[int][]float64
	feErrs map[int]error
}

func newGather(m *serve.Model) *gather {
	return &gather{model: m, scores: make(map[int][]float64), feErrs: make(map[int]error)}
}

func (g *gather) failShard(p *peer, fes []string, err error) {
	for _, name := range fes {
		if q, ok := g.model.FrontEndIndex(name); ok {
			g.feErrs[q] = fmt.Errorf("shard %s: %w", p.addr, err)
		}
	}
	obs.Inc("cluster.rpc.errors")
	wobsShardFailed.Inc()
}

func (g *gather) mergeResult(p *peer, fes []string, res *serve.ScoreResult) {
	for _, name := range fes {
		q, ok := g.model.FrontEndIndex(name)
		if !ok {
			continue
		}
		if row, ok := res.Scores[name]; ok {
			g.scores[q] = row
			continue
		}
		msg := res.FrontEndErrors[name]
		if msg == "" {
			if msg = res.Error; msg == "" {
				msg = "no score returned"
			}
		}
		g.feErrs[q] = fmt.Errorf("shard %s: %s", p.addr, msg)
	}
}

var (
	obsDegraded     = obs.GetCounter("cluster.score.degraded")
	wobsDegraded    = obs.GetWindowCounter("cluster.score.degraded")
	wobsShardFailed = obs.GetWindowCounter("cluster.rpc.errors")
)

// assemble fuses one gathered utterance exactly like the standalone
// serving path (AssembleResult: exact fusion when everything survived,
// ScoreMasked survivor fusion otherwise). ok=false when nothing
// survived — the all-shards-lost error path.
func (g *gather) assemble(id string) (serve.ScoreResult, bool) {
	if len(g.scores) == 0 {
		return serve.ScoreResult{}, false
	}
	res := serve.AssembleResult(g.model, id, g.scores, g.feErrs)
	if res.Degraded {
		obsDegraded.Inc()
		wobsDegraded.Inc()
	}
	return res, true
}

// firstErr surfaces a representative shard error for an all-lost
// utterance (deterministic: lowest front-end index).
func (g *gather) firstErr() error {
	for q := 0; ; q++ {
		if err, ok := g.feErrs[q]; ok {
			return err
		}
		if q > len(g.model.Bundle.FrontEnds) {
			return fmt.Errorf("no shard produced scores")
		}
	}
}

func (c *Coordinator) handleScore(w http.ResponseWriter, r *http.Request) {
	pl := c.admit(w, r)
	if pl == nil {
		return
	}
	tr := c.startTrace(w, r, "score")
	var req serve.ScoreRequest
	if !c.decodeBody(w, r, &req) {
		c.finishTrace(tr, "score", statusOf(w), false, nil, "bad request")
		return
	}
	if len(req.FrontEnds) == 0 {
		writeError(w, http.StatusBadRequest, "request names no front-ends")
		c.finishTrace(tr, "score", statusOf(w), false, nil, "no front-ends")
		return
	}
	// Cascade fast path: a high-margin tier-1 decision answers here, with
	// zero shard RPCs in flight; everything else falls through into the
	// ordinary scatter–gather carrying its escalation outcome.
	var casc *serve.CascadeOutcome
	if c.cfg.Cascade.Enabled {
		var fast *serve.ScoreResult
		casc, fast = c.tryCascade(pl, &req, tr.span())
		if fast != nil {
			resp := serve.ScoreResponse{
				ModelVersion:      pl.model.Version,
				ClusterGeneration: pl.gen,
				Languages:         pl.model.Bundle.Languages,
				ScoreResult:       *fast,
			}
			if tr != nil {
				resp.TraceID = tr.id
			}
			writeJSON(w, http.StatusOK, resp)
			c.finishTrace(tr, "score", http.StatusOK, false, nil, "")
			return
		}
	}
	calls, err := c.planShards(pl, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		c.finishTrace(tr, "score", statusOf(w), false, nil, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()

	g := newGather(pl.model)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, call := range calls {
		wg.Add(1)
		go func(call shardCall) {
			defer wg.Done()
			sub := &serve.ScoreRequest{ID: req.ID, FrontEnds: make(map[string]serve.FrontEndInput, len(call.fes))}
			for _, fe := range call.fes {
				sub.FrontEnds[fe] = req.FrontEnds[fe]
			}
			res, err := c.scatterOne(ctx, tr, pl.gen, call, sub)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				g.failShard(call.p, call.fes, err)
				return
			}
			g.mergeResult(call.p, call.fes, &res.ScoreResult)
		}(call)
	}
	wg.Wait()

	result, ok := g.assemble(req.ID)
	if !ok {
		err := g.firstErr()
		writeError(w, http.StatusServiceUnavailable, "all shards failed: %v", err)
		c.finishTrace(tr, "score", statusOf(w), false, nil, err.Error())
		return
	}
	result.Cascade = casc
	resp := serve.ScoreResponse{
		ModelVersion:      pl.model.Version,
		ClusterGeneration: pl.gen,
		Languages:         pl.model.Bundle.Languages,
		ScoreResult:       result,
	}
	if tr != nil {
		resp.TraceID = tr.id
	}
	writeJSON(w, http.StatusOK, resp)
	c.finishTrace(tr, "score", http.StatusOK, result.Degraded, result.Surviving, result.Error)
}

// scatterOne runs one shard's /v1/score RPC under the shard deadline,
// with an rpc.shard child span whose span id becomes the traceparent
// the worker continues — /tracez then shows the coordinator→shard
// subtree on both sides of the hop.
func (c *Coordinator) scatterOne(ctx context.Context, tr *coordTrace, gen int64, call shardCall, sub *serve.ScoreRequest) (*serve.ScoreResponse, error) {
	sctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	var sp *obs.Span
	var traceparent string
	if tr != nil {
		sp = tr.root.StartChild("rpc.shard")
		sp.SetLabel("shard", call.p.addr)
		spanID := obs.NewSpanID()
		sp.SetLabel("span_id", spanID)
		traceparent = obs.Traceparent(tr.id, spanID)
	}
	res, err := call.p.score(sctx, gen, traceparent, sub)
	if sp != nil {
		if err != nil {
			sp.SetLabel("error", err.Error())
		}
		sp.End()
	}
	return res, err
}

func (c *Coordinator) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	pl := c.admit(w, r)
	if pl == nil {
		return
	}
	tr := c.startTrace(w, r, "batch")
	var req serve.BatchRequest
	if !c.decodeBody(w, r, &req) {
		c.finishTrace(tr, "batch", statusOf(w), false, nil, "bad request")
		return
	}
	if len(req.Utterances) == 0 {
		writeError(w, http.StatusBadRequest, "batch names no utterances")
		c.finishTrace(tr, "batch", statusOf(w), false, nil, "empty batch")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()

	// Scatter one batch RPC per peer, carrying only the utterances (and
	// front-end subsets) that peer owns; uttIdx maps the sub-batch back
	// to request positions. Degradation stays per utterance end to end:
	// a peer-level failure fails that peer's front-ends for its
	// utterances, and a worker-side per-utterance degradation (the
	// per-utterance sets on BatchResponse.Results) degrades exactly the
	// utterances it named.
	gathers := make([]*gather, len(req.Utterances))
	for i := range gathers {
		gathers[i] = newGather(pl.model)
	}
	// Cascade runs per utterance, exactly like the standalone batch path:
	// a tier-1 exit carries its finished result straight to the response
	// and contributes nothing to any peer's sub-batch.
	fast := make([]*serve.ScoreResult, len(req.Utterances))
	cascOut := make([]*serve.CascadeOutcome, len(req.Utterances))
	var badReq error
	type peerBatch struct {
		call   shardCall
		sub    serve.BatchRequest
		uttIdx []int
		fes    [][]string // per sub-utterance front-end subset
	}
	var batches []*peerBatch
	byPeer := make(map[*peer]*peerBatch, len(c.peers))
	for i := range req.Utterances {
		u := &req.Utterances[i]
		if c.cfg.Cascade.Enabled {
			casc, res := c.tryCascade(pl, u, tr.span())
			if res != nil {
				fast[i] = res
				continue
			}
			cascOut[i] = casc
		}
		calls, err := c.planShards(pl, u)
		if err != nil {
			badReq = err
			break
		}
		for _, call := range calls {
			pb, ok := byPeer[call.p]
			if !ok {
				pb = &peerBatch{call: call}
				byPeer[call.p] = pb
				batches = append(batches, pb)
			}
			sub := serve.ScoreRequest{ID: u.ID, FrontEnds: make(map[string]serve.FrontEndInput, len(call.fes))}
			for _, fe := range call.fes {
				sub.FrontEnds[fe] = u.FrontEnds[fe]
			}
			pb.sub.Utterances = append(pb.sub.Utterances, sub)
			pb.uttIdx = append(pb.uttIdx, i)
			pb.fes = append(pb.fes, call.fes)
		}
	}
	if badReq != nil {
		writeError(w, http.StatusBadRequest, "%v", badReq)
		c.finishTrace(tr, "batch", statusOf(w), false, nil, badReq.Error())
		return
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, pb := range batches {
		wg.Add(1)
		go func(pb *peerBatch) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
			defer cancel()
			var sp *obs.Span
			var traceparent string
			if tr != nil {
				sp = tr.root.StartChild("rpc.shard")
				sp.SetLabel("shard", pb.call.p.addr)
				sp.SetAttr("utterances", float64(len(pb.sub.Utterances)))
				spanID := obs.NewSpanID()
				sp.SetLabel("span_id", spanID)
				traceparent = obs.Traceparent(tr.id, spanID)
			}
			res, err := pb.call.p.batch(sctx, pl.gen, traceparent, &pb.sub)
			if sp != nil {
				if err != nil {
					sp.SetLabel("error", err.Error())
				}
				sp.End()
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				for k, i := range pb.uttIdx {
					gathers[i].failShard(pb.call.p, pb.fes[k], err)
				}
				return
			}
			for k, i := range pb.uttIdx {
				gathers[i].mergeResult(pb.call.p, pb.fes[k], &res.Results[k])
			}
		}(pb)
	}
	wg.Wait()

	resp := serve.BatchResponse{
		ModelVersion:      pl.model.Version,
		ClusterGeneration: pl.gen,
		Languages:         pl.model.Bundle.Languages,
		Results:           make([]serve.ScoreResult, len(req.Utterances)),
	}
	for i := range req.Utterances {
		if fast[i] != nil {
			resp.Results[i] = *fast[i]
			continue
		}
		res, ok := gathers[i].assemble(req.Utterances[i].ID)
		if !ok {
			res = serve.ScoreResult{ID: req.Utterances[i].ID, Error: fmt.Sprintf("all shards failed: %v", gathers[i].firstErr())}
		}
		res.Cascade = cascOut[i]
		if res.Degraded {
			resp.Degraded = true
			resp.DegradedCount++
		}
		resp.Results[i] = res
	}
	if tr != nil {
		resp.TraceID = tr.id
	}
	writeJSON(w, http.StatusOK, resp)
	c.finishTrace(tr, "batch", http.StatusOK, resp.Degraded, nil, "")
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	pl := c.plan.Load()
	if pl == nil {
		writeError(w, http.StatusServiceUnavailable, "fleet not yet distributed")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ready",
		"generation": pl.gen,
		"peers":      len(c.peers),
		"front_ends": pl.model.Manifest.FrontEnds,
		"languages":  len(pl.model.Bundle.Languages),
	})
}

func (c *Coordinator) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	rep := obs.Snapshot().MetricsOnly()
	rep.Meta = map[string]string{"service": "lred", "role": "coordinator"}
	if pl := c.plan.Load(); pl != nil {
		rep.Meta["cluster_generation"] = fmt.Sprintf("%d", pl.gen)
		rep.Meta["model_version"] = fmt.Sprintf("%d", pl.model.Version)
	}
	for _, p := range c.peers {
		rep.Meta["shard."+p.addr] = joinFEs(p.fes)
	}
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rep.WritePrometheus(w)
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		rep.WriteJSON(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or prom)", r.URL.Query().Get("format"))
	}
}

func (c *Coordinator) handleTracez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.traces.Snapshot())
}

func (c *Coordinator) handleClusterz(w http.ResponseWriter, r *http.Request) {
	cz := Clusterz{Role: "coordinator"}
	if pl := c.plan.Load(); pl != nil {
		cz.Generation = pl.gen
		cz.ModelVersion = pl.model.Version
		cz.FrontEnds = pl.model.Manifest.FrontEnds
	}
	for _, p := range c.peers {
		cz.Peers = append(cz.Peers, p.status())
	}
	writeJSON(w, http.StatusOK, cz)
}

// Reload reloads the full bundle from disk and redistributes it; the
// routing plan only advances when every worker acked the new
// generation. It returns the active generation (SIGHUP parity with the
// standalone daemon's hot reload).
func (c *Coordinator) Reload(ctx context.Context) (int64, error) {
	if _, err := c.reg.Reload(); err != nil {
		return c.Plan(), fmt.Errorf("reload failed (previous bundle still active): %w", err)
	}
	if err := c.Distribute(ctx); err != nil {
		return c.Plan(), fmt.Errorf("distribution failed (previous plan still routing): %w", err)
	}
	return c.Plan(), nil
}

// handleReload reloads the full bundle from disk and redistributes it;
// the routing plan only advances when every worker acked the new
// generation.
func (c *Coordinator) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if c.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "coordinator is draining")
		return
	}
	if _, err := c.reg.Reload(); err != nil {
		writeError(w, http.StatusInternalServerError, "reload failed (previous bundle still active): %v", err)
		return
	}
	if err := c.Distribute(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, "distribution failed (previous plan still routing): %v", err)
		return
	}
	pl := c.plan.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": pl.gen,
		"manifest":   pl.model.Manifest,
	})
}

func joinFEs(fes []string) string {
	out := ""
	for i, fe := range fes {
		if i > 0 {
			out += ","
		}
		out += fe
	}
	return out
}
