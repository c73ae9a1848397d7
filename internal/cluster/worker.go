package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// Worker is a shared-nothing shard: the ordinary internal/serve scoring
// server (admission, degradation, reload breaker, tracing — all of
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

// NewWorker builds a worker serving cfg, whose ModelDir is the spool:
// the worker-local bundle directory the coordinator distributes into
// (created if missing). Unlike standalone serving, an empty spool is not
// an error: the worker starts unready (503 on scoring, /readyz) and waits
// for the coordinator's first push.
func NewWorker(cfg serve.Config) (*Worker, error) {
	if cfg.ModelDir == "" {
		return nil, fmt.Errorf("cluster: worker has no spool directory")
	}
	if err := os.MkdirAll(cfg.ModelDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: spool: %w", err)
	}
	cfg.WaitForModel = true
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	w := &Worker{spool: cfg.ModelDir}
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

// maxPushBytes caps a bundle push body.
const maxPushBytes = 256 << 20

// handleBundle installs a coordinator push: the exported bundle image
// and a shard manifest pinning its SHA-256 and listing this worker's
// front-ends. Check the content type and the manifest header; read the
// body once, hashing it as it comes off the socket and decoding it while
// the hash finishes, and keep the assigned front-ends once the footer,
// the manifest's format version, the pinned SHA-256 and the shard's own
// checks pass (persist.UnsealBundle); publish the received bytes
// unchanged into the spool with the manifest last
// (SealedBundle.Install); and swap the shard in through the registry's
// one swap step. On any failure the previously installed bundle keeps
// serving.
func (w *Worker) handleBundle(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rw.Header().Set("Allow", http.MethodPost)
		writeError(rw, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ct != bundleContentType {
		writeError(rw, http.StatusUnsupportedMediaType, "bundle push must be Content-Type %s, got %q", bundleContentType, r.Header.Get("Content-Type"))
		return
	}
	raw := r.Header.Get(ManifestHeader)
	if raw == "" || len(raw) > maxManifestHeader {
		writeError(rw, http.StatusBadRequest, "bundle push needs a %s header of 1 to %d bytes, got %d", ManifestHeader, maxManifestHeader, len(raw))
		return
	}
	var mf persist.Manifest
	if err := json.Unmarshal([]byte(raw), &mf); err != nil {
		writeError(rw, http.StatusBadRequest, "bad %s header: %v", ManifestHeader, err)
		return
	}
	if mf.ClusterGeneration <= 0 || mf.BundleSHA256 == "" {
		writeError(rw, http.StatusBadRequest, "%s must carry a cluster_generation ≥ 1 and the image's bundle_sha256", ManifestHeader)
		return
	}
	t0 := time.Now()
	sb, err := persist.UnsealBundle(http.MaxBytesReader(rw, r.Body, maxPushBytes), r.ContentLength, mf)
	var rerr *persist.ReadError
	switch {
	case errors.As(err, &rerr):
		writeError(rw, http.StatusBadRequest, "bad bundle push body: %v", rerr.Err)
		return
	case err != nil:
		writeError(rw, http.StatusBadRequest, "bundle does not unseal into a valid shard: %v", err)
		return
	}
	w.installMu.Lock()
	defer w.installMu.Unlock()
	written, err := sb.Install(w.spool)
	if err != nil {
		writeError(rw, http.StatusInternalServerError, "spool write (previous bundle still active): %v", err)
		return
	}
	m := w.srv.Registry().Swap(sb.Bundle, written)
	obs.Observe("cluster.worker.install.seconds", time.Since(t0).Seconds())
	obs.Observe("serve.model.verify_wait_seconds", sb.VerifyWait.Seconds())
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
