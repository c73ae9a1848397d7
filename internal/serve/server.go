package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/cascade"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Config sizes the server. Zero values select the defaults noted per
// field.
type Config struct {
	// ModelDir is the bundle directory (required); New fails fast if the
	// initial load fails.
	ModelDir string
	// MaxBatch bounds how many requests share one scoring pass (16).
	MaxBatch int
	// BatchWait is how long a non-full batch waits for company (2 ms).
	BatchWait time.Duration
	// QueueDepth bounds the admission queue; beyond it requests get
	// 429 + Retry-After (256).
	QueueDepth int
	// Workers sizes the scoring pool (GOMAXPROCS).
	Workers int
	// RequestTimeout is the per-request deadline covering queueing and
	// scoring (5 s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: queued work is finished and
	// open connections closed within it (10 s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies (32 MiB).
	MaxBodyBytes int64
	// Reload governs reload retry/backoff and the circuit breaker.
	Reload ReloadPolicy
	// Cascade opts into the two-tier scoring cascade (see cascade.go).
	Cascade CascadeConfig
	// Adapt opts into online DBA self-training (see adapt.go): "" or
	// "off" disables it (the default — serving is then bit-identical to a
	// build without the subsystem); "on"/"default" selects
	// adapt.DefaultPolicy; anything else parses as a policy spec.
	Adapt string

	// AccessLog receives sampled JSON access-log lines, one object per
	// line (nil: access logging off).
	AccessLog io.Writer
	// AccessLogEvery samples every Nth request onto AccessLog (1 = all).
	// Degraded and errored requests are always logged regardless.
	AccessLogEvery int
	// DisableTracing turns off per-request trace spans, the /tracez
	// buffer, access logging, and the rolling-window metrics — the
	// baseline configuration of the tracing-overhead benchmark
	// (BENCH_obs.json). Production serving keeps tracing on.
	DisableTracing bool

	// WaitForModel lets the server start with an empty or unloadable
	// bundle directory: scoring requests get 503 "no model loaded" and
	// /readyz stays unready until a later reload succeeds. Cluster shard
	// workers run this way — they boot against an empty spool directory
	// and wait for the coordinator to push their shard bundle.
	WaitForModel bool

	// clock substitutes the time source in tests (nil: real time).
	clock Clock
}

func (c *Config) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	c.Reload.setDefaults()
}

// Server is the scoring daemon's HTTP request path, the same for every
// serving role: admission, decode, the cascade fast path, fusion, the
// response, tracing, RED metrics, reload and drain. What differs between
// roles — where the model comes from and how front-ends get scored — is
// its Role (role.go). New builds the standalone daemon.
type Server struct {
	cfg       Config
	role      Role
	mux       *http.ServeMux
	traces    *obs.TraceBuffer
	accessLog *accessLogger
	draining  atomic.Bool
	inflight  atomic.Int64

	// ns prefixes the request path's metric and span names (see
	// NewWithRole); degraded and casc are its namespaced tallies.
	ns       string
	degraded tally
	casc     cascadeTallies

	// cascadePolicy is the parsed threshold-offset policy; read-only
	// after construction. Meaningful only when cfg.Cascade.Enabled.
	cascadePolicy cascade.Policy

	// The standalone role's state, nil on a server built by NewWithRole.
	// adapter is the online self-training loop, nil unless cfg.Adapt
	// selects a policy (see adapt.go).
	reg      *Registry
	reloader *reloader
	batcher  *Batcher
	adapter  *adapt.Adapter
}

// New loads the bundle and starts the batching dispatcher. The returned
// server is ready to serve; pass its Handler to an http.Server or call
// Run.
func New(cfg Config) (*Server, error) {
	if cfg.ModelDir == "" {
		return nil, fmt.Errorf("serve: no model directory configured")
	}
	s, err := newServer(cfg, "serve")
	if err != nil {
		return nil, err
	}
	cfg = s.cfg
	s.role = (*standalone)(s)
	s.reg = NewRegistry(cfg.ModelDir)
	if _, err := s.reg.Reload(); err != nil && !cfg.WaitForModel {
		return nil, fmt.Errorf("serve: initial model load: %w", err)
	}
	s.reloader = newReloader(s.reg, cfg.Reload, cfg.clock)
	if err := s.initAdapter(); err != nil {
		return nil, fmt.Errorf("serve: adapt: %w", err)
	}
	s.batcher = newBatcher(cfg.MaxBatch, cfg.QueueDepth, cfg.Workers, cfg.BatchWait, nil, cfg.clock)
	s.batcher.windowed = !cfg.DisableTracing
	return s, nil
}

// newServer builds the role-independent request path under namespace ns.
func newServer(cfg Config, ns string) (*Server, error) {
	cfg.setDefaults()
	s := &Server{cfg: cfg, ns: ns, traces: obs.NewTraceBuffer(0, 0, 0)}
	if cfg.Cascade.Enabled {
		pol, err := cascade.ParsePolicy(cfg.Cascade.Margin)
		if err != nil {
			return nil, fmt.Errorf("serve: cascade margin: %w", err)
		}
		s.cascadePolicy = pol
	}
	windowed := !cfg.DisableTracing
	if windowed {
		s.accessLog = newAccessLogger(cfg.AccessLog, cfg.AccessLogEvery)
	}
	s.degraded = newTally(ns+".score.degraded", windowed)
	if ns == "serve" {
		// AssembleResult counts serve.score.degraded for every role; only
		// the window is this server's.
		s.degraded.c = nil
	}
	s.casc = newCascadeTallies(ns, windowed)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/score", s.instrument("score", func(w http.ResponseWriter, r *http.Request) {
		s.serveScore(w, r, false)
	}))
	s.mux.HandleFunc("/v1/score/batch", s.instrument("batch", func(w http.ResponseWriter, r *http.Request) {
		s.serveScore(w, r, true)
	}))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	s.mux.HandleFunc("/tracez", s.handleTracez)
	s.mux.HandleFunc("/-/reload", s.instrument("reload", s.handleReload))
	s.mux.HandleFunc("/adaptz", s.handleAdaptz)
	s.mux.HandleFunc("/-/adapt/promote", s.instrument("adapt_promote", s.handleAdaptPromote))
	s.mux.HandleFunc("/-/adapt/rollback", s.instrument("adapt_rollback", s.handleAdaptRollback))
	return s, nil
}

// Registry exposes the model registry (reload loops, tests); nil on a
// server built by NewWithRole.
func (s *Server) Registry() *Registry { return s.reg }

// Reload swaps in a fresh bundle through the retry/backoff and
// circuit-breaker policy; SIGHUP handlers and the /-/reload endpoint of a
// standalone server both go through here. On failure the previous model
// stays active.
func (s *Server) Reload() (*Model, error) { return s.reloader.Reload() }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// tally is a cumulative counter with its rolling-window twin; the window
// moves only while tracing is on. A nil counter keeps only the window.
type tally struct {
	c        *obs.Counter
	w        *obs.WindowCounter
	windowed bool
}

func newTally(name string, windowed bool) tally {
	return tally{obs.GetCounter(name), obs.GetWindowCounter(name), windowed}
}

func (t tally) inc() {
	if t.c != nil {
		t.c.Inc()
	}
	if t.windowed {
		t.w.Inc()
	}
}

// timing is a latency histogram with its rolling-window twin; a
// negative duration is not observed.
type timing struct {
	h        *obs.Histogram
	w        *obs.Window
	windowed bool
}

func newTiming(name string, windowed bool) timing {
	return timing{obs.GetHistogram(name), obs.GetWindow(name), windowed}
}

func (t timing) observe(d time.Duration) {
	if d < 0 {
		return
	}
	t.h.Observe(d.Seconds())
	if t.windowed {
		t.w.Observe(d.Seconds())
	}
}

// statusWriter records the response status so instrumentation, the
// trace buffer, and the access log can see the request's outcome.
// instrument wraps every scoring/reload handler in one, so those
// handlers may assume their ResponseWriter is a *statusWriter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func statusOf(w http.ResponseWriter) int {
	if sw, ok := w.(*statusWriter); ok {
		return sw.status
	}
	return http.StatusOK
}

// instrument wraps a handler with per-endpoint request counts, latency
// histograms (cumulative + rolling windows), server-error counters, and
// the shared in-flight gauge, all under the server's namespace.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	windowed := !s.cfg.DisableTracing
	reqs := obs.GetCounter(s.ns + ".http." + name + ".requests")
	lat := newTiming(s.ns+".http."+name+".seconds", windowed)
	errs := newTally(s.ns+".http.errors", windowed)
	inflight := obs.GetGauge(s.ns + ".http.inflight")
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		inflight.Set(float64(s.inflight.Add(1)))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		defer func() {
			lat.observe(time.Since(t0))
			if sw.status >= 500 {
				errs.inc()
			}
			inflight.Set(float64(s.inflight.Add(-1)))
		}()
		h(sw, r)
	}
}

// reqTrace is the per-request tracing context of a scoring handler:
// W3C identifiers plus the detached root span the scoring step hangs its
// stage spans off.
type reqTrace struct {
	id        string // 32-hex trace id (accepted or minted)
	parent    string // caller's span id when the request carried a traceparent
	spanID    string // this server's root span id
	start     time.Time
	root      *obs.Span
	batchID   int64
	modelVer  int64
	degraded  bool
	surviving []string
	errMsg    string
}

// startTrace accepts the request's traceparent (or mints a fresh trace),
// opens the root span, and stamps the response header so the client
// learns the id even on error paths. Returns nil when tracing is off.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request, endpoint string) *reqTrace {
	if s.cfg.DisableTracing {
		return nil
	}
	id, parent, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		id, parent = obs.NewTraceID(), ""
	}
	tr := &reqTrace{
		id:     id,
		parent: parent,
		spanID: obs.NewSpanID(),
		start:  time.Now(),
		root:   obs.NewSpan(s.ns + "." + endpoint),
	}
	tr.root.SetLabel("trace_id", id)
	w.Header().Set("traceparent", obs.Traceparent(id, tr.spanID))
	return tr
}

// finishTrace ends the root span, files the finished trace into the
// /tracez buffer, and emits the (sampled) access-log line.
func (s *Server) finishTrace(tr *reqTrace, endpoint string, status int) {
	if tr == nil {
		return
	}
	dur := tr.root.End()
	e := &obs.TraceEntry{
		TraceID:      tr.id,
		SpanID:       tr.spanID,
		ParentSpanID: tr.parent,
		Endpoint:     endpoint,
		Start:        tr.start,
		DurationSec:  dur.Seconds(),
		Status:       status,
		ModelVersion: tr.modelVer,
		BatchID:      tr.batchID,
		Degraded:     tr.degraded,
		Surviving:    tr.surviving,
		Error:        tr.errMsg,
		Root:         tr.root.Data(),
	}
	s.traces.Add(e)
	if s.accessLog != nil {
		s.accessLog.log(recordFromTrace(e), e.Degraded || e.Error != "" || status >= 500)
	}
}

// noteResult folds one utterance's result into the degradation tally and
// the trace: degradation state, survivors, error, and the dispatch batch
// it rode in.
func (s *Server) noteResult(tr *reqTrace, u *Utterance, res *ScoreResult) {
	if res.Degraded {
		s.degraded.inc()
	}
	if tr == nil {
		return
	}
	if u.batchID > tr.batchID {
		tr.batchID = u.batchID
	}
	if res.Degraded {
		tr.degraded = true
		tr.surviving = mergeSurvivors(tr.surviving, res.Surviving)
	}
	if res.Error != "" {
		tr.errMsg = res.Error
	}
}

// mergeSurvivors unions sorted survivor sets (batch requests may degrade
// several utterances differently).
func mergeSurvivors(a, b []string) []string {
	if len(a) == 0 {
		return append([]string(nil), b...)
	}
	seen := make(map[string]bool, len(a)+len(b))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		seen[x] = true
	}
	out := make([]string, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// admit runs the checks every scoring request passes before decode:
// method, drain state, and the role's model pin. It returns the pin to
// score against, or nil after writing the response.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) *Pin {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return nil
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil
	}
	// Chaos hook: error faults surface as 503 (bounded, well-formed
	// failures), delay faults model a slow handler.
	if err := faultinject.At("serve.handler"); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return nil
	}
	pin, err := s.role.Resolve()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return nil
	}
	return pin
}

// decodeUtterances reads the body — one ScoreRequest, or a BatchRequest
// when batch — under a "decode" span, or writes the 400 and returns false.
func (s *Server) decodeUtterances(w http.ResponseWriter, r *http.Request, root *obs.Span, batch bool) ([]ScoreRequest, bool) {
	var dsp *obs.Span
	if root != nil {
		dsp = root.StartChild("decode")
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	var utts []ScoreRequest
	var err error
	if batch {
		var req BatchRequest
		err = dec.Decode(&req)
		utts = req.Utterances
	} else {
		utts = make([]ScoreRequest, 1)
		err = dec.Decode(&utts[0])
	}
	// The body is exactly one JSON value: anything but whitespace after it
	// is a malformed request, not something to ignore.
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	if dsp != nil {
		dsp.End()
	}
	switch {
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, false
	case len(utts) == 0:
		writeError(w, http.StatusBadRequest, "batch names no utterances")
		return nil, false
	}
	return utts, true
}

// submit admits one resolved utterance into the batcher and translates
// backpressure into HTTP semantics. span, when non-nil, becomes the
// job's trace node: resolution and queue wait record as children, and
// the batcher attaches batch-formation and per-front-end scoring spans.
func (s *Server) submit(ctx context.Context, m *Model, id string, req *ScoreRequest, span *obs.Span) (*job, int, error) {
	var rsp *obs.Span
	if span != nil {
		rsp = span.StartChild("resolve")
	}
	vectors, err := buildVectors(m, req)
	if rsp != nil {
		rsp.End()
	}
	if err != nil {
		var re *requestError
		if errors.As(err, &re) {
			return nil, http.StatusBadRequest, err
		}
		return nil, http.StatusInternalServerError, err
	}
	j := &job{
		ctx:      ctx,
		model:    m,
		id:       id,
		vectors:  vectors,
		result:   make(chan jobResult, 1),
		enqueued: time.Now(),
		span:     span,
	}
	if span != nil {
		j.queueSpan = span.StartChild("queue.wait")
	}
	if err := s.batcher.Submit(j); err != nil {
		if j.queueSpan != nil {
			j.queueSpan.SetLabel("error", err.Error())
			j.queueSpan.End()
		}
		switch {
		case errors.Is(err, ErrQueueFull):
			return nil, http.StatusTooManyRequests, err
		case errors.Is(err, ErrDraining):
			return nil, http.StatusServiceUnavailable, err
		default:
			return nil, http.StatusInternalServerError, err
		}
	}
	return j, 0, nil
}

// await blocks until the job completes or its deadline passes.
func await(ctx context.Context, j *job) (jobResult, error) {
	select {
	case res := <-j.result:
		return res, nil
	case <-ctx.Done():
		return jobResult{}, ctx.Err()
	}
}

// serveScore is every role's scoring request path, for /v1/score and
// (batch) /v1/score/batch: admit, decode, the cascade fast path per
// utterance, the role's scoring step for everything tier 1 did not
// answer, fusion, and the response. In a batch a failed utterance
// carries its own error and its batch-mates still score; a single
// request answers with the failure's status.
func (s *Server) serveScore(w http.ResponseWriter, r *http.Request, batch bool) {
	pin := s.admit(w, r)
	if pin == nil {
		return
	}
	endpoint := "score"
	if batch {
		endpoint = "batch"
	}
	m := pin.Model
	tr := s.startTrace(w, r, endpoint)
	defer func() { s.finishTrace(tr, endpoint, statusOf(w)) }()
	sc := &Scoring{Batch: batch}
	if tr != nil {
		tr.modelVer = m.Version
		sc.Root, sc.TraceID = tr.root, tr.id
	}
	utts, ok := s.decodeUtterances(w, r, sc.Root, batch)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Cascade latency is per request (elapsed is negative in a batch):
	// batch utterances share dispatch, so a per-utterance wall time would
	// price batch-mates' work.
	start := time.Now()
	elapsed := func() time.Duration {
		if batch {
			return -1
		}
		return time.Since(start)
	}
	results := make([]ScoreResult, len(utts))
	cascOut := make([]*CascadeOutcome, len(utts))
	pos := make([]int, 0, len(utts)) // request position of each sc.Utts entry
	for i := range utts {
		u := &utts[i]
		span := sc.Root
		if batch && span != nil {
			span = span.StartChild("utt")
			span.SetLabel("id", u.ID)
		}
		// Cascade fast path: a confident tier-1 answer finishes the
		// utterance without the scoring step. Escalations (tier-1 faults
		// included) fall through and carry their outcome onto the result.
		if s.cfg.Cascade.Enabled {
			casc, fast := CascadeTier1(m, s.cascadePolicy, u, span)
			if casc.Reason == ReasonTier1Fault {
				s.casc.failed.inc()
			}
			if fast != nil {
				s.casc.exit.inc()
				s.casc.tier1.observe(elapsed())
				results[i] = *fast
				if batch && span != nil {
					span.End()
				}
				continue
			}
			cascOut[i] = casc
		}
		sc.Utts = append(sc.Utts, Utterance{Req: u, Span: span})
		pos = append(pos, i)
	}
	if len(sc.Utts) > 0 {
		pin.Score(ctx, sc)
	}
	for k := range sc.Utts {
		u, i := &sc.Utts[k], pos[k]
		if u.Err != nil && !batch {
			s.noteResult(tr, u, &ScoreResult{Error: u.Err.Error()})
			if u.Status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, u.Status, "%v", u.Err)
			return
		}
		if u.Err != nil {
			results[i] = ScoreResult{ID: u.Req.ID, Error: u.Err.Error()}
			if u.Span != nil {
				u.Span.SetLabel("error", u.Err.Error())
			}
		} else {
			var fsp *obs.Span
			if u.Span != nil {
				fsp = u.Span.StartChild("fuse")
			}
			results[i] = AssembleResult(m, u.Req.ID, u.Scores, u.FrontEndErrs)
			if fsp != nil {
				fsp.End()
			}
		}
		if cascOut[i] != nil {
			results[i].Cascade = cascOut[i]
			s.casc.escalate.inc()
			s.casc.escalated.observe(elapsed())
			if results[i].Degraded {
				s.casc.escDegraded.inc()
			}
		}
		s.noteResult(tr, u, &results[i])
		if batch && u.Span != nil {
			u.Span.End()
		}
	}

	traceID := ""
	if tr != nil {
		traceID = tr.id
	}
	if !batch {
		writeJSON(w, http.StatusOK, ScoreResponse{
			ModelVersion:      m.Version,
			ClusterGeneration: pin.Generation,
			Languages:         m.Bundle.Languages,
			TraceID:           traceID,
			ScoreResult:       results[0],
		})
		return
	}
	resp := BatchResponse{
		ModelVersion:      m.Version,
		ClusterGeneration: pin.Generation,
		Languages:         m.Bundle.Languages,
		TraceID:           traceID,
		Results:           results,
	}
	// Per-utterance degradation rolls up into the batch summary; the
	// per-utterance flags and survivor sets on Results stay authoritative
	// (one degraded utterance must not smear its batch-mates).
	for i := range results {
		if results[i].Degraded {
			resp.Degraded = true
			resp.DegradedCount++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	pin, err := s.role.Resolve()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	body, err := s.role.Ready(pin)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetricsz serves the process metrics in two formats, negotiated
// by the ?format query parameter (JSON by default, Prometheus text
// exposition for ?format=prom / ?format=prometheus). The JSON view is
// the metrics-only report — counters, gauges, histograms, and the
// 1m/5m rolling windows — without the per-run span dump (that lives at
// /tracez).
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	rep := obs.Snapshot().MetricsOnly()
	rep.Meta = map[string]string{"service": "lred"}
	s.role.Describe(rep.Meta)
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

// handleTracez dumps the bounded trace buffer: recent requests, the
// slowest retained, and the degraded/errored exemplars (always kept).
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.traces.Snapshot())
}

// adminPost gates the mutating admin endpoints: POST only, not while
// draining.
func (s *Server) adminPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	return true
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !s.adminPost(w, r) {
		return
	}
	body, status, err := s.role.Reload(r.Context())
	if err != nil {
		if errors.Is(err, ErrBreakerOpen) {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.Reload.Cooldown/time.Second)+1))
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// Run serves on l until ctx is cancelled (the daemon wires SIGTERM/SIGINT
// into that), then drains gracefully: new scoring work is rejected with
// 503, every queued job is finished and delivered, and open connections
// close — all within DrainTimeout. A clean drain returns nil.
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	return s.RunHandler(ctx, l, s.mux)
}

// RunHandler is Run with a caller-supplied handler tree — a wrapper
// that extends this server's endpoints (the cluster roles mount their
// /-/bundle, /clusterz and generation check in front of the scoring
// handlers) while keeping the server's drain discipline. The role's
// background loop runs alongside and has exited when RunHandler returns.
func (s *Server) RunHandler(ctx context.Context, l net.Listener, h http.Handler) error {
	stopLoop := background(ctx, s.role.Loop)
	defer stopLoop()
	hs := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(l) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	return s.drain(hs)
}

func (s *Server) drain(hs *http.Server) error {
	s.draining.Store(true)
	obs.SetGauge(s.ns+".draining", 1)
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	// Finish the queue first: handlers blocked in await are the open
	// connections Shutdown waits on, and they can only finish once the
	// dispatcher delivers their results.
	if s.batcher != nil {
		if err := s.batcher.Drain(ctx); err != nil {
			hs.Close()
			return fmt.Errorf("serve: drain: %w", err)
		}
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return nil
}
