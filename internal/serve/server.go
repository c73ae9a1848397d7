package serve

import (
	"bytes"
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
	// ModelDir is the bundle directory (required): the export for a
	// standalone daemon or a fleet coordinator, the spool a shard worker
	// is pushed into. New fails fast if the initial load fails, unless
	// WaitForModel is set.
	ModelDir string
	// QueueDepth is the admission bound: how many scoring calls may be
	// in flight at once, a batch request counting once; beyond it
	// requests get 429 + Retry-After (256).
	QueueDepth int
	// RequestTimeout is the per-request deadline covering resolution and
	// scoring (5 s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: admitted work is finished and
	// open connections closed within it (10 s).
	DrainTimeout time.Duration
	// Reload governs every retry loop and circuit breaker: model reloads,
	// and on a fleet coordinator the bundle pushes and per-peer breakers.
	Reload ReloadPolicy
	// Cascade opts into the two-tier scoring cascade (see cascade.go).
	Cascade CascadeConfig
	// Adapt opts into online DBA self-training (see adapt.go): "" or
	// "off" disables it (the default — serving is then bit-identical to a
	// build without the subsystem); "on"/"default" selects
	// adapt.DefaultPolicy; anything else parses as a policy spec.
	Adapt string

	// AccessLog receives sampled JSON access-log lines, one per request,
	// each byte for byte its /tracez record (nil: access logging off).
	AccessLog io.Writer
	// AccessLogEvery samples every Nth request onto AccessLog (1 = all).
	// Degraded and errored requests are always logged regardless.
	AccessLogEvery int
	// DisableTracing turns off per-request trace spans, the /tracez
	// buffer, access logging, and the rolling-window metrics (lred
	// -no-trace), the untraced side of a tracing-overhead comparison.
	// Production serving keeps tracing on.
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
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
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
	// NewWithRole); degraded and casc are its namespaced metrics.
	// degraded is nil under "serve", whose count AssembleResult keeps.
	ns       string
	degraded *obs.Counter
	casc     cascadeMetrics

	// cascadePolicy is the parsed threshold-offset policy; read-only
	// after construction. Meaningful only when cfg.Cascade.Enabled.
	cascadePolicy cascade.Policy

	// The standalone role's state, nil on a server built by NewWithRole.
	// adapter is the online self-training loop, nil unless cfg.Adapt
	// selects a policy (see adapt.go).
	reg      *Registry
	reloader *reloader
	passes   *admission
	adapter  *adapt.Adapter
}

// New loads the bundle and sizes admission. The returned server is ready
// to serve; pass its Handler to an http.Server or call Run.
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
	s.reg = &Registry{dir: cfg.ModelDir, hold: s.holdRule(false)}
	if _, err := s.reg.Reload(); err != nil && !cfg.WaitForModel {
		return nil, fmt.Errorf("serve: initial model load: %w", err)
	}
	s.reloader = newReloader(s.reg, cfg.Reload, cfg.clock)
	if err := s.initAdapter(); err != nil {
		return nil, fmt.Errorf("serve: adapt: %w", err)
	}
	s.passes = newAdmission(cfg.QueueDepth)
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
	if !cfg.DisableTracing {
		s.accessLog = newAccessLogger(cfg.AccessLog, cfg.AccessLogEvery)
	}
	if degraded := s.counter(ns + ".score.degraded"); degraded != obsDegraded {
		s.degraded = degraded
	}
	s.casc = s.newCascadeMetrics()
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

// Config returns the server's config with its defaults applied.
func (s *Server) Config() Config { return s.cfg }

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

// counter and histogram return the named metric, keeping its rolling
// window when tracing is on. A window belongs to the metric, so it is
// process-wide.
func (s *Server) counter(name string) *obs.Counter {
	c := obs.GetCounter(name)
	if !s.cfg.DisableTracing {
		c.KeepWindow()
	}
	return c
}

func (s *Server) histogram(name string) *obs.Histogram {
	h := obs.GetHistogram(name)
	if !s.cfg.DisableTracing {
		h.KeepWindow()
	}
	return h
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
	reqs := obs.GetCounter(s.ns + ".http." + name + ".requests")
	lat := s.histogram(s.ns + ".http." + name + ".seconds")
	errs := s.counter(s.ns + ".http.errors")
	inflight := obs.GetGauge(s.ns + ".http.inflight")
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		inflight.Set(float64(s.inflight.Add(1)))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		defer func() {
			lat.Observe(time.Since(t0).Seconds())
			if sw.status >= 500 {
				errs.Inc()
			}
			inflight.Set(float64(s.inflight.Add(-1)))
		}()
		h(sw, r)
	}
}

// reqTrace is the per-request tracing context of a scoring handler: the
// /tracez record the handler fills in as the request proceeds, plus the
// detached root span the scoring step hangs its stage spans off.
type reqTrace struct {
	obs.TraceEntry
	root *obs.Span
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
		TraceEntry: obs.TraceEntry{
			TraceID:      id,
			SpanID:       obs.NewSpanID(),
			ParentSpanID: parent,
			Endpoint:     endpoint,
			Start:        time.Now(),
		},
		root: obs.NewSpan(s.ns + "." + endpoint),
	}
	tr.root.SetLabel("trace_id", id)
	w.Header().Set("traceparent", obs.Traceparent(id, tr.SpanID))
	return tr
}

// finishTrace ends the root span, files the finished trace into the
// /tracez buffer, and writes the bytes the buffer kept as the (sampled)
// access-log line.
func (s *Server) finishTrace(tr *reqTrace, status int) {
	if tr == nil {
		return
	}
	tr.DurationSec = tr.root.End().Seconds()
	tr.Status = status
	tr.Root = tr.root.Data()
	s.accessLog.log(s.traces.Add(&tr.TraceEntry), tr.Degraded || tr.Error != "" || status >= 500)
}

// reject writes an error response and records its message as the
// trace's error; tr is nil when tracing is off.
func (tr *reqTrace) reject(w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if tr != nil {
		tr.Error = msg
	}
	writeError(w, status, "%s", msg)
}

// noteResult folds one utterance's result into the degradation count and
// the trace: degradation state, survivors and error.
func (s *Server) noteResult(tr *reqTrace, res *ScoreResult) {
	if res.Degraded && s.degraded != nil {
		s.degraded.Inc()
	}
	if tr == nil {
		return
	}
	if res.Degraded {
		tr.Degraded = true
		tr.Surviving = mergeSurvivors(tr.Surviving, res.Surviving)
	}
	if res.Error != "" {
		tr.Error = res.Error
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
// score against, or nil after writing the response and recording the
// rejection on tr.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, tr *reqTrace) *Pin {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		tr.reject(w, http.StatusMethodNotAllowed, "POST only")
		return nil
	}
	if s.draining.Load() {
		tr.reject(w, http.StatusServiceUnavailable, "server is draining")
		return nil
	}
	// Chaos hook: error faults surface as 503 (bounded, well-formed
	// failures), delay faults model a slow handler.
	if err := faultinject.At("serve.handler"); err != nil {
		tr.reject(w, http.StatusServiceUnavailable, "%v", err)
		return nil
	}
	pin, err := s.role.Resolve()
	if err != nil {
		tr.reject(w, http.StatusServiceUnavailable, "%v", err)
		return nil
	}
	return pin
}

// decodeUtterances reads the body — one ScoreRequest, or a BatchRequest
// when batch — under a "read" span and parses it under a "decode" span,
// or writes the 400, records it on tr, and returns false.
func (s *Server) decodeUtterances(w http.ResponseWriter, r *http.Request, tr *reqTrace, batch bool) ([]ScoreRequest, bool) {
	var sp *obs.Span
	if tr != nil {
		sp = tr.root.StartChild("read")
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if sp != nil {
		sp.End()
	}
	var utts []ScoreRequest
	if err == nil {
		if tr != nil {
			sp = tr.root.StartChild("decode")
		}
		utts, err = DecodeScoreRequest(body, batch)
		if sp != nil {
			sp.End()
		}
	}
	switch {
	case err != nil:
		tr.reject(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, false
	case len(utts) == 0:
		tr.reject(w, http.StatusBadRequest, "batch names no utterances")
		return nil, false
	}
	return utts, true
}

// maxBodyBytes bounds request bodies on every role: one byte more is a
// 400.
const maxBodyBytes = 32 << 20

// maxBodyHint caps how much readBody allocates on a Content-Length's
// word alone.
const maxBodyHint = 1 << 20

// readBody reads r to its end into a buffer sized for the announced
// length (the Content-Length, or -1) plus the spare bytes.Buffer wants
// to see EOF without growing. The buffer is not pooled: a pool's idle
// buffers are live at every collection, and measured on sv-replay they
// cost more peak memory than the garbage they save (DESIGN.md, "Request
// decoding").
func readBody(r io.Reader, size int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(size, 0), maxBodyHint)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// serveScore is every role's scoring request path, for /v1/score and
// (batch) /v1/score/batch: admit, decode, the cascade fast path per
// utterance, the role's scoring step for everything tier 1 did not
// answer, fusion, and the response. In a batch a failed utterance
// carries its own error and its batch-mates still score; a single
// request answers with the failure's status.
func (s *Server) serveScore(w http.ResponseWriter, r *http.Request, batch bool) {
	endpoint := "score"
	if batch {
		endpoint = "batch"
	}
	tr := s.startTrace(w, r, endpoint)
	defer func() { s.finishTrace(tr, statusOf(w)) }()
	pin := s.admit(w, r, tr)
	if pin == nil {
		return
	}
	m := pin.Model
	sc := &Scoring{Batch: batch}
	if tr != nil {
		tr.ModelVersion = m.Version
		sc.Root, sc.TraceID = tr.root, tr.TraceID
	}
	utts, ok := s.decodeUtterances(w, r, tr, batch)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Cascade latency is per request (a batch observes none): batch
	// utterances share one scoring pass, so a per-utterance wall time
	// would price batch-mates' work.
	start := time.Now()
	observe := func(h *obs.Histogram) {
		if !batch {
			h.Observe(time.Since(start).Seconds())
		}
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
				s.casc.failed.Inc()
			}
			if fast != nil {
				s.casc.exit.Inc()
				observe(s.casc.tier1)
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
			s.noteResult(tr, &ScoreResult{Error: u.Err.Error()})
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
			s.casc.escalate.Inc()
			observe(s.casc.escalated)
			if results[i].Degraded {
				s.casc.escDegraded.Inc()
			}
		}
		s.noteResult(tr, &results[i])
		if batch && u.Span != nil {
			u.Span.End()
		}
	}

	traceID := ""
	if tr != nil {
		traceID = tr.TraceID
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
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.traces.WriteJSON(w)
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
// 503, every admitted pass is finished and delivered, and open
// connections close — all within DrainTimeout. A clean drain returns nil.
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
	// Finish the admitted passes first: handlers waiting on their pass
	// are the open connections Shutdown waits on, and they can only
	// finish once their pass is done.
	if s.passes != nil {
		if err := s.passes.drain(ctx); err != nil {
			hs.Close()
			return fmt.Errorf("serve: drain: %w", err)
		}
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return nil
}
