// Command lred is the online scoring daemon: it loads a model bundle
// exported by `lre -export-models`, and serves language-recognition
// scores over HTTP/JSON with inline SVM scoring under an admission
// bound, hot model reload, and graceful drain.
//
// Usage:
//
//	lre -scale small -seed 42 -export-models ./models
//	lred -models ./models -addr 127.0.0.1:8080
//
// The bundle must be format 2, what this build's lre writes. A bundle
// directory or adapt model dir from an older build fails startup (exit
// 1), a reload (the previous model keeps serving) and a worker push
// (400) with one message: "persist: bundle format 1 (want 2): re-export
// with lre -export-models DIR".
//
// Endpoints:
//
//	POST /v1/score        score one utterance (per-front-end lattice or supervector)
//	POST /v1/score/batch  score many utterances in one call
//	GET  /healthz         process liveness
//	GET  /readyz          model loaded and not draining
//	GET  /metricsz        serving metrics (see format negotiation below)
//	GET  /tracez          bounded buffer of recent/slowest/degraded request traces
//	POST /-/reload        reload the bundle directory (SIGHUP does the same)
//	GET  /adaptz          online-adaptation loop status (enabled:false when off)
//	POST /-/adapt/promote force one gated promotion attempt (-adapt only)
//	POST /-/adapt/rollback roll back to the last-known-good generation (-adapt only)
//
// Online adaptation (-adapt, standalone role only): the daemon buffers
// served full-battery utterances, periodically retrains the SVM battery
// on the high-vote ones (the paper's Eq. 13 DBA selection, off the
// request path), and hot-swaps the result in — but only after a
// three-stage safety gate: a golden-score canary on a frozen referee
// set, an EER-must-not-regress check on a frozen holdout, and shadow
// rescoring of sampled live traffic. Promotions are generation-versioned
// on disk (gen-NNNNNN directories, each committed by a sealed numbered
// record), crash-safe (a torn or uncommitted candidate is never served),
// and reversible: the post-promotion canary probe rolls back to
// last-known-good automatically, and POST /-/adapt/rollback does it on
// demand. A model dir promoted by an earlier build, which kept a single
// rewritten pointer file and no commit record, is refused at load. The
// default ('-adapt=off') leaves serving bit-identical to a daemon without
// the subsystem. See DESIGN.md "Online adaptation & safe promotion".
//
// Metrics format negotiation: /metricsz serves the metrics-only
// internal/obs report — counters, gauges, histograms, and 1m/5m rolling
// RED windows — as JSON by default. `?format=prom` (or `prometheus`)
// switches to the Prometheus text exposition format 0.0.4 (Content-Type
// `text/plain; version=0.0.4`), with metric names sanitized to the
// Prometheus alphabet (`serve.http.score.seconds` →
// `serve_http_score_seconds`), counters suffixed `_total`, and histograms
// rendered as cumulative `_bucket{le=...}` series closed by `+Inf` plus
// `_sum`/`_count`. Any other format value is a 400. `lrestat` renders the
// JSON view as a live terminal dashboard.
//
// Tracing: every scoring request accepts a W3C `traceparent` header (or
// mints a fresh trace), returns the id in the response header and body,
// and files the finished span tree — body read and decode, resolution,
// per-front-end scoring, fusion — into the /tracez buffer. Degraded and
// errored traces are always retained. -no-trace turns all of it off.
// -access-log emits sampled JSON access-log lines (one per request, byte
// for byte its /tracez record, an obs.TraceEntry; degraded/errored
// requests always log) to stderr, stdout, or a file; -access-log-every N
// keeps every Nth line.
//
// Scoring is inline: each request is admitted once and scored at once in
// its own pass over a pool of GOMAXPROCS goroutines; the utterances of a
// /v1/score/batch request share that one pass. -queue bounds the passes
// in flight, a batch request counting once.
//
// Robustness: per-request deadlines (-timeout), 429 + Retry-After when
// every admission slot is taken (-queue), panic-isolated scoring workers,
// graceful front-end degradation (a failing recognizer/SVM is dropped
// from fusion and the response is marked degraded), reload retry/backoff
// behind a circuit breaker (-reload-retries, -reload-backoff,
// -breaker-trip, -breaker-cooldown), and graceful drain on
// SIGTERM/SIGINT — admitted work finishes, new work gets 503, and the
// process exits 0 within -drain-timeout. The same four flags govern a
// coordinator's bundle-push retries and its per-peer circuit breakers:
// every role builds one serve.Config from the flags, and one policy
// (serve.ReloadPolicy) drives every retry loop and breaker.
//
// Chaos mode enables the deterministic fault-injection layer for the
// whole process (see internal/faultinject; TESTING.md documents the spec
// grammar). The internal/e2e chaos drill runs the daemon this way:
//
//	lred -models ./models -chaos 'seed=7; serve.score.fe.HU:error:p=0.2'
//
// Cascade mode (-cascade) turns on the two-tier scoring cascade when the
// bundle carries a tier-1 model (lre -export-models embeds one whenever
// the pipeline can train it): requests whose tier-1 PRLM margin clears
// the calibrated per-duration bar are answered from the cheap path —
// the supervector/SVM battery never runs — and everything else escalates
// unchanged. -cascade-margin shifts the calibrated thresholds ('-inf'
// escalates everything, bit-identical to running without -cascade;
// '+inf' answers everything at tier 1); a per-tier override must name a
// tier the bundle's tier-1 model has, or startup (and a reload onto such
// a model) fails. Both the standalone daemon and
// the cluster coordinator honor it (a coordinator-side tier-1 exit skips
// the shard fan-out entirely); exit/escalate rates, tier-1 failures, and
// per-path latency land under serve.cascade.* / cluster.cascade.* in
// /metricsz and render as a cascade row in lrestat.
//
// Cluster roles (-role, default standalone): the same binary runs the
// distributed scatter–gather topology from internal/cluster.
//
//	lred -models ./models -addr :8080                        # standalone (default)
//	lred -role=worker -spool /tmp/shard0 -addr :9101         # shard worker
//	lred -role=worker -spool /tmp/shard1 -addr :9102
//	lred -role=coordinator -models ./models -addr :8080 \
//	     -peers 127.0.0.1:9101,127.0.0.1:9102
//
// The coordinator loads the export and keeps no scoring weights: it
// assigns the front-end battery round-robin across the workers, pushes
// each worker the exported bundle.gob with a generation-stamped manifest
// naming its front-ends (the worker keeps those, without fusion), and
// serves the standalone
// scoring API through the standalone server's own request path, with a
// scoring step that scatters per-front-end RPCs and gathers the rows for
// fusion — bit-identical to standalone when every shard answers,
// survivor fusion (degraded:true) when one misses its -shard-timeout.
// Workers start with an empty -spool and wait for the push. SIGHUP on
// the coordinator reloads + redistributes (generation-consistent: the
// plan only advances when every worker acked).
//
// Measuring: the daemon carries no load generator. `bash bench/run.sh`
// (the bench/ harness) boots it out of process, standalone and as a
// fleet, and checks every response bit for bit against the offline
// pipeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lred: ")
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		models       = flag.String("models", "", "bundle directory written by lre -export-models (required)")
		queueDepth   = flag.Int("queue", 256, "admission bound: scoring requests in flight, a batch counting once (beyond it: 429 + Retry-After)")
		timeout      = flag.Duration("timeout", 5*time.Second, "per-request deadline (resolution + scoring)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget on SIGTERM")

		reloadRetries = flag.Int("reload-retries", 2, "extra attempts after a failed model reload or, on a coordinator, a failed bundle push (0 = none)")
		reloadBackoff = flag.Duration("reload-backoff", 100*time.Millisecond, "initial backoff before a reload or bundle-push retry (doubles per retry, up to 2s)")
		breakerTrip   = flag.Int("breaker-trip", 3, "consecutive failures that open a circuit breaker: failed reloads, or failed RPCs to one coordinator peer")
		breakerCool   = flag.Duration("breaker-cooldown", 30*time.Second, "how long an open breaker fails fast (reloads, coordinator peer RPCs) before probing")
		chaos         = flag.String("chaos", "", "fault-injection plan, e.g. 'seed=7; serve.score.fe.HU:error:p=0.2' (testing only)")

		cascadeOn     = flag.Bool("cascade", false, "enable the two-tier cascade fast path (the bundle must carry a cascade model; bundles without one escalate everything)")
		cascadeMargin = flag.String("cascade-margin", "", "cascade threshold-offset policy: a bare offset ('0.05', '-inf', '+inf') or per-tier overrides ('default=0;30s=0.1'); empty = calibrated margins as-is")
		adaptSpec     = flag.String("adapt", "off", "online DBA self-training: 'off' (default), 'on' (default policy), or a policy spec like 'cadence=5m;votes=4;method=m2;eer-budget=0.5' (standalone role only; the bundle must carry an adapt sidecar)")

		accessLog      = flag.String("access-log", "stderr", "access-log destination: stderr, stdout, a file path, or 'none'")
		accessLogEvery = flag.Int("access-log-every", 1, "log every Nth request (degraded/errored always log)")
		noTrace        = flag.Bool("no-trace", false, "disable request tracing, /tracez, access logging, and rolling-window metrics")

		role          = flag.String("role", "standalone", "process role: standalone, coordinator, or worker")
		peers         = flag.String("peers", "", "coordinator: comma-separated worker addresses (host:port)")
		spool         = flag.String("spool", "", "worker: local shard-bundle directory the coordinator distributes into")
		shardTimeout  = flag.Duration("shard-timeout", time.Second, "coordinator: per-shard RPC deadline (a late shard degrades like a failed front-end)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "coordinator: worker health-probe and re-push cadence")
	)
	flag.Parse()

	switch *role {
	case "standalone", "coordinator", "worker":
	default:
		log.Fatalf("unknown -role %q (want standalone, coordinator, or worker)", *role)
	}
	dir := *models
	if *role == "worker" {
		if dir = *spool; dir == "" {
			log.Fatal("worker role needs -spool (the coordinator distributes bundles into it)")
		}
	} else if dir == "" {
		log.Fatal("no -models directory (export one with: lre -export-models <dir>)")
	}
	if *adaptSpec != "" && *adaptSpec != "off" && *role != "standalone" {
		// Coordinator/worker promotion would need cluster-wide generation
		// consensus; the self-training loop is a standalone feature.
		log.Fatalf("-adapt is standalone-only (role %q)", *role)
	}
	if *chaos != "" {
		plan, err := faultinject.ParsePlan(*chaos)
		if err != nil {
			log.Fatal(err)
		}
		faultinject.Enable(plan)
		log.Printf("CHAOS MODE: fault injection enabled (seed=%d, %d rules) — not for production",
			plan.Seed, len(plan.Rules))
	}
	logDst, err := openAccessLog(*accessLog)
	if err != nil {
		log.Fatal(err)
	}
	serveCfg := serve.Config{
		ModelDir:       dir,
		QueueDepth:     *queueDepth,
		RequestTimeout: *timeout,
		DrainTimeout:   *drainTimeout,
		AccessLog:      logDst,
		AccessLogEvery: *accessLogEvery,
		DisableTracing: *noTrace,
		Cascade:        serve.CascadeConfig{Enabled: *cascadeOn, Margin: *cascadeMargin},
		Adapt:          *adaptSpec,
		Reload: serve.ReloadPolicy{
			Retries:     *reloadRetries,
			BaseBackoff: *reloadBackoff,
			TripAfter:   *breakerTrip,
			Cooldown:    *breakerCool,
		},
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)

	var (
		run    func(context.Context, net.Listener) error
		reload func() string // one SIGHUP reload, as its log line
	)
	switch *role {
	case "worker":
		w, err := cluster.NewWorker(serveCfg)
		if err != nil {
			log.Fatal(err)
		}
		if m := w.Server().Registry().Current(); m != nil {
			log.Printf("worker: resuming spooled shard bundle v%d (generation %d): %d front-ends",
				m.Version, m.ClusterGeneration(), len(m.Bundle.FrontEnds))
		} else {
			log.Printf("worker: empty spool %s, waiting for coordinator push", *spool)
		}
		log.Printf("worker serving on http://%s", ln.Addr())
		run, reload = w.Run, reloadServer(w.Server(), "shard bundle")

	case "coordinator":
		peerAddrs := splitPeers(*peers)
		if len(peerAddrs) == 0 {
			log.Fatal("coordinator role needs -peers (comma-separated worker addresses)")
		}
		c, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Serve:         serveCfg,
			Peers:         peerAddrs,
			ShardTimeout:  *shardTimeout,
			ProbeInterval: *probeInterval,
		})
		if err != nil {
			log.Fatal(err)
		}
		// First distribution: workers may still be booting, so a failure
		// here is not fatal — the repair loop keeps retrying.
		if err := c.Distribute(ctx); err != nil {
			log.Printf("initial distribution incomplete (repair loop will retry): %v", err)
		} else {
			log.Printf("distributed generation %d to %d workers", c.Plan(), len(peerAddrs))
		}
		log.Printf("coordinator serving on http://%s (shard-timeout=%s)", ln.Addr(), *shardTimeout)
		run = c.Run
		reload = func() string {
			gen, err := c.Reload(context.Background())
			if err != nil {
				return err.Error()
			}
			return fmt.Sprintf("reloaded + redistributed: now generation %d", gen)
		}

	default:
		s, err := serve.New(serveCfg)
		if err != nil {
			log.Fatal(err)
		}
		m := s.Registry().Current()
		log.Printf("loaded bundle v%d from %s in %.1f ms: %d front-ends, %d languages, fusion=%v",
			m.Version, *models, float64(m.LoadTime.Microseconds())/1e3, len(m.Bundle.FrontEnds), len(m.Bundle.Languages), m.Bundle.Fusion != nil)
		if a := s.Adapter(); a != nil {
			st := a.Status()
			log.Printf("online adaptation on: generation %d, policy %s", st.Generation, st.Policy)
		}
		log.Printf("serving on http://%s (queue=%d)", ln.Addr(), *queueDepth)
		run, reload = s.Run, reloadServer(s, "bundle")
	}

	go func() {
		for range hup {
			log.Print(reload())
		}
	}()
	if err := run(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}

// reloadServer is the SIGHUP reload of a standalone daemon or a worker:
// a reload through the retry/backoff and breaker policy, in which
// in-flight requests keep the model they were admitted with. what names
// the bundle in the log line.
func reloadServer(s *serve.Server, what string) func() string {
	return func() string {
		m, err := s.Reload()
		if err != nil {
			return fmt.Sprintf("reload failed (previous %s still active): %v", what, err)
		}
		return fmt.Sprintf("reloaded %s: now v%d", what, m.Version)
	}
}

// splitPeers parses the -peers flag (comma-separated, blanks ignored).
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// openAccessLog resolves the -access-log flag: the standard streams by
// name, 'none' (or empty) for off, anything else an append-opened file.
func openAccessLog(dst string) (io.Writer, error) {
	switch dst {
	case "", "none":
		return nil, nil
	case "stderr":
		return os.Stderr, nil
	case "stdout":
		return os.Stdout, nil
	default:
		f, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("open access log: %w", err)
		}
		return f, nil
	}
}
