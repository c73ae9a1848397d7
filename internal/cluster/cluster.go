// Package cluster turns the single-process scoring daemon into a
// horizontally scaled tier: a **coordinator** that routes requests and
// fuses score rows, and shared-nothing **shard workers** that each keep
// only their assigned front-ends and score them on demand.
//
// The coordinator is a serve.Server: the standalone daemon's own request
// path (admission, decode, cascade fast path, resolution, fusion,
// tracing, metrics, reload, drain) under the cluster.* metric namespace,
// so it serves the exact /v1/score and /v1/score/batch API by
// construction. Every utterance is resolved against the routed bundle
// before the scoring step, so a malformed one is answered there, as a
// standalone daemon answers it, and a worker only ever receives
// utterances that resolved, in a body within its limit (the coordinator
// answers an oversized one 400); any non-200 from a worker is a peer failure.
// Only its scoring step differs (a serve.Role): it scatters per-front-end scoring
// RPCs to the workers that own them and gathers the partial score rows
// under a per-shard deadline, and the shared path fuses the survivors
// with serve.AssembleResult — fusion.Score when every shard answered and
// fusion.ScoreMasked survivor fusion when one did not. Workers mount
// /-/bundle and the coordinator /clusterz on a mux in front of their
// server. A shard that misses its deadline,
// trips its circuit breaker, or answers for the wrong model generation
// degrades the request exactly like a failed in-process front-end does
// in standalone mode: the response stays 2xx, marked Degraded with the
// surviving front-end set on the wire.
//
// Model distribution is coordinator-driven and generation-consistent.
// The coordinator loads the export through a routing registry
// (serve.Server.NewRoutingRegistry): it verifies and decodes the sealed
// bundle.gob, keeps the file open, and drops every front-end's scoring
// weights — it keeps only languages, fusion, front-end geometry and,
// when it runs the cascade, the cascade model. It pushes every worker at once over POST /-/bundle
// the exported bytes as they are, read from that open file
// (application/octet-stream), with a shard manifest as JSON in the
// X-Cluster-Manifest header: the export's manifest stamped with the
// fleet generation, pinning the image's SHA-256 and listing the worker's
// assigned front-ends. A worker hashes the body as it comes off the
// socket, decodes it once while the hash finishes, and keeps its
// assignment without fusion or the cascade only once the footer and the
// pinned SHA-256 check out (persist.UnsealBundle); it writes the
// received bytes unchanged into its spool directory (manifest last; a
// restarted worker's load makes the same selection), and swaps the
// shard in through the registry's one swap step — the step every serve
// reload ends in. The routing plan advances only when every worker
// acked; a failed distribution can leave any subset of workers on the
// unrouted generation, and they answer 409 until repair restores them.
// Scoring RPCs carry the generation in the X-Cluster-Generation header:
// a worker rejects routed requests for a different generation with 409,
// and the coordinator re-checks the generation echoed in every shard
// response, so a request never fuses scores from mixed model
// generations even across a concurrent redistribution. A background
// repair loop re-pushes the plan's generation — the plan keeps its image
// open, so a re-export since does not reach the workers — through the
// same fan-out, to workers that restart empty or fall off the plan.
//
// Peer health reuses the retry/backoff loop and circuit breaker of
// model reloads (serve.Retry, serve.Breaker) under the same policy,
// CoordinatorConfig.Serve.Reload, with one breaker per peer: TripAfter
// consecutive RPC failures open the breaker, scoring then fails fast
// (degrading instead of stalling on a dead worker) until Cooldown
// elapses and a half-open probe re-tests the peer. A push is retried
// Retries times, from BaseBackoff doubling up to 2 s.
//
// Chaos: every shard RPC passes the fault-injection site
// "cluster.rpc.<host:port>" (prefix rules: cluster.rpc.*), so the chaos
// plan grammar reaches the scatter path like any other site.
//
// cmd/lred surfaces all of this as -role=coordinator|worker; the
// default -role=standalone is bit-identical to the pre-cluster daemon.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"repro/internal/serve"
)

// node is one cluster process: the serve.Server request path with the
// role's cluster endpoints (/-/bundle, /clusterz) mounted in front of it
// on one mux.
type node struct {
	srv *serve.Server
	mux *http.ServeMux
}

// newNode routes everything the cluster endpoints do not claim to root,
// the server's handler tree (or a wrapper around it).
func newNode(srv *serve.Server, root http.Handler) node {
	n := node{srv: srv, mux: http.NewServeMux()}
	n.mux.Handle("/", root)
	return n
}

// Run serves until ctx is cancelled, then drains like the standalone
// daemon: admitted scoring work finishes before connections close, and
// the role's background loop has exited when Run returns.
func (n *node) Run(ctx context.Context, l net.Listener) error {
	return n.srv.RunHandler(ctx, l, n.mux)
}

// ManifestHeader carries a bundle push's shard manifest as JSON, at most
// maxManifestHeader bytes: ClusterGeneration stamped, BundleSHA256
// pinning the body, FrontEnds the worker's assignment. The POST /-/bundle
// body is the exported bundle.gob exactly as the operator's export wrote
// it, sent as bundleContentType; its footer's CRC32 and SHA-256 cover
// every byte.
const ManifestHeader = "X-Cluster-Manifest"

const (
	bundleContentType = "application/octet-stream"
	maxManifestHeader = 64 << 10
)

// bundleAck is a worker's response to a successful bundle install.
type bundleAck struct {
	Generation   int64    `json:"generation"`
	ModelVersion int64    `json:"model_version"`
	FrontEnds    []string `json:"front_ends"`
}

// Clusterz is the GET /clusterz introspection body. Workers report their
// own shard state; the coordinator reports the fleet (Peers filled).
type Clusterz struct {
	Role         string       `json:"role"`
	Generation   int64        `json:"generation"`
	ModelVersion int64        `json:"model_version,omitempty"`
	FrontEnds    []string     `json:"front_ends,omitempty"`
	Peers        []PeerStatus `json:"peers,omitempty"`
}

// PeerStatus is one worker's health as the coordinator sees it.
type PeerStatus struct {
	Addr      string   `json:"addr"`
	FrontEnds []string `json:"front_ends"`
	Up        bool     `json:"up"`
	Breaker   string   `json:"breaker"` // closed | open | half-open
	Failures  int64    `json:"failures"`
	// Generation the peer last acked; 0 until the first install.
	Generation int64 `json:"generation"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
