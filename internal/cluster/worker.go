package cluster

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// WorkerConfig sizes a shard worker. Serve carries the ordinary serving
// knobs (batching, queue, deadlines, tracing); its ModelDir is ignored —
// the worker serves whatever the coordinator last pushed into Spool.
type WorkerConfig struct {
	// Spool is the worker-local bundle directory the coordinator
	// distributes into (created if missing; may start empty).
	Spool string
	// Serve configures the embedded scoring server.
	Serve serve.Config
}

// Worker is a shared-nothing shard: the ordinary internal/serve scoring
// server (micro-batching, degradation, reload breaker, tracing — all of
// it) loading only the front-ends the coordinator assigned it, plus the
// cluster endpoints:
//
//	POST /-/bundle   install a pushed shard bundle and hot-swap it
//	GET  /clusterz   shard introspection (role, generation, front-ends)
//
// Scoring requests carrying an X-Cluster-Generation header are admitted
// only when the header matches the generation of the currently loaded
// bundle; mismatches get 409 so the coordinator degrades that shard
// rather than fusing scores across model generations. Requests without
// the header (ops curl, standalone clients) pass through unchanged.
type Worker struct {
	node
	spool string

	installMu sync.Mutex // serializes bundle installs
}

// NewWorker builds a worker over its spool directory. Unlike standalone
// serving, an empty spool is not an error: the worker starts unready
// (503 on scoring, /readyz) and waits for the coordinator's first push.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Spool == "" {
		return nil, fmt.Errorf("cluster: worker has no spool directory")
	}
	if err := os.MkdirAll(cfg.Spool, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: spool: %w", err)
	}
	cfg.Serve.ModelDir = cfg.Spool
	cfg.Serve.WaitForModel = true
	srv, err := serve.New(cfg.Serve)
	if err != nil {
		return nil, err
	}
	w := &Worker{spool: cfg.Spool}
	w.node = newNode(srv, w.generationCheck(srv.Handler()))
	w.mux.HandleFunc("/-/bundle", w.handleBundle)
	w.mux.HandleFunc("/clusterz", w.handleClusterz)
	obs.SetGauge("cluster.worker", 1)
	return w, nil
}

// Server exposes the embedded scoring server (tests, reload loops).
func (w *Worker) Server() *serve.Server { return w.srv }

// generationCheck rejects scoring requests routed for a generation
// other than the one currently loaded. The check reads the same model
// pointer admission will resolve, and the serve layer's response echoes
// the admitted model's generation, which the coordinator re-verifies —
// together that closes the race where a push lands between this check
// and admission.
func (w *Worker) generationCheck(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if want := r.Header.Get(GenerationHeader); want != "" && strings.HasPrefix(r.URL.Path, "/v1/") {
			gen, err := strconv.ParseInt(want, 10, 64)
			if err != nil {
				writeError(rw, http.StatusBadRequest, "bad %s %q", GenerationHeader, want)
				return
			}
			m := w.srv.Registry().Current()
			if m == nil {
				writeError(rw, http.StatusServiceUnavailable, "no shard bundle installed")
				return
			}
			if got := m.ClusterGeneration(); got != gen {
				obs.Inc("cluster.worker.generation_conflicts")
				writeError(rw, http.StatusConflict,
					"request routed for generation %d, worker serves %d", gen, got)
				return
			}
		}
		next.ServeHTTP(rw, r)
	})
}

// handleBundle installs a coordinator-pushed shard bundle: decode and
// validate the sealed payload, write it into the spool through the
// ordinary persist bundle writer (manifest-last, atomic), and hot-swap
// it through the serve reload path (retry/backoff + breaker). On any
// failure the previously installed bundle keeps serving.
func (w *Worker) handleBundle(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rw.Header().Set("Allow", http.MethodPost)
		writeError(rw, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var push bundlePush
	r.Body = http.MaxBytesReader(rw, r.Body, 256<<20)
	if err := json.NewDecoder(r.Body).Decode(&push); err != nil {
		writeError(rw, http.StatusBadRequest, "bad bundle push: %v", err)
		return
	}
	sealed, err := base64.StdEncoding.DecodeString(push.BundleB64)
	if err != nil {
		writeError(rw, http.StatusBadRequest, "bad bundle payload: %v", err)
		return
	}
	var b persist.Bundle
	if err := persist.UnmarshalSealed(sealed, &b); err != nil {
		writeError(rw, http.StatusBadRequest, "bundle does not unseal: %v", err)
		return
	}
	if err := b.Validate(); err != nil {
		writeError(rw, http.StatusBadRequest, "invalid shard bundle: %v", err)
		return
	}
	w.installMu.Lock()
	defer w.installMu.Unlock()
	if err := persist.SaveBundle(w.spool, &b, push.Manifest); err != nil {
		writeError(rw, http.StatusInternalServerError, "spool write: %v", err)
		return
	}
	m, err := w.srv.Reload()
	if err != nil {
		writeError(rw, http.StatusInternalServerError, "install reload failed (previous bundle still active): %v", err)
		return
	}
	obs.Inc("cluster.worker.installs")
	obs.SetGauge("cluster.generation", float64(m.ClusterGeneration()))
	writeJSON(rw, http.StatusOK, bundleAck{
		Generation:   m.ClusterGeneration(),
		ModelVersion: m.Version,
		FrontEnds:    m.Manifest.FrontEnds,
	})
}

func (w *Worker) handleClusterz(rw http.ResponseWriter, r *http.Request) {
	cz := Clusterz{Role: "worker"}
	if m := w.srv.Registry().Current(); m != nil {
		cz.Generation = m.ClusterGeneration()
		cz.ModelVersion = m.Version
		cz.FrontEnds = m.Manifest.FrontEnds
	}
	writeJSON(rw, http.StatusOK, cz)
}
