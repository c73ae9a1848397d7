package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// ErrBreakerOpen marks a shard RPC rejected without touching the
// network because the peer's circuit breaker is open.
var ErrBreakerOpen = errors.New("cluster: peer circuit breaker open")

// GenerationHeader carries the fleet generation a scoring RPC was
// routed for; workers reject mismatches with 409 (see worker.go).
const GenerationHeader = "X-Cluster-Generation"

// peer is the coordinator's client for one shard worker: base URL,
// circuit breaker, and per-peer metrics. The metric names are flat obs
// keys suffixed by the peer address —
// cluster.peer.<addr>.up, cluster.peer.<addr>.breaker_open,
// cluster.peer.<addr>.failures, cluster.rpc.<addr>.seconds — which is
// what lrestat's shards panel reads off /metricsz.
type peer struct {
	addr   string // host:port (metric and log key)
	base   string // http://host:port
	client *http.Client
	br     *serve.Breaker
	clock  serve.Clock

	// ackedGen is the generation the worker last acked an install for
	// (0 before the first push); the repair loop keys re-pushes off it.
	ackedGen atomic.Int64

	up       *obs.Gauge
	brOpen   *obs.Gauge
	failures *obs.Counter
	rpcHist  *obs.Histogram
}

// newPeer returns the client for the worker at addr, its breaker
// governed by pol's TripAfter and Cooldown.
func newPeer(addr string, pol serve.ReloadPolicy, transport http.RoundTripper, clock serve.Clock) *peer {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	key := strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
	return &peer{
		addr:     key,
		base:     base,
		client:   &http.Client{Transport: transport},
		br:       serve.NewBreaker(pol),
		clock:    clock,
		up:       obs.GetGauge("cluster.peer." + key + ".up"),
		brOpen:   obs.GetGauge("cluster.peer." + key + ".breaker_open"),
		failures: obs.GetCounter("cluster.peer." + key + ".failures"),
		rpcHist:  obs.GetHistogram("cluster.rpc." + key + ".seconds"),
	}
}

// status snapshots the peer for /clusterz; fes is its front-end list
// in the active plan.
func (p *peer) status(fes []string) PeerStatus {
	return PeerStatus{
		Addr:       p.addr,
		FrontEnds:  fes,
		Up:         p.up.Value() > 0,
		Breaker:    p.br.State(p.clock.Now()),
		Failures:   p.failures.Value(),
		Generation: p.ackedGen.Load(),
	}
}

// rpc runs one POST against the peer with breaker gating, the
// cluster.rpc.<addr> fault-injection site, and per-peer latency/health
// metrics. hdr is added to the request and may override its JSON
// Content-Type; out, when non-nil, receives the decoded 2xx JSON body.
func (p *peer) rpc(ctx context.Context, path string, hdr http.Header, body io.Reader, out any) error {
	if ok, _ := p.br.Allow(p.clock.Now()); !ok {
		// Failing fast is the point of the breaker: the shard degrades
		// without a network timeout. Not a recorded failure — the breaker
		// state only moves on real probe outcomes.
		return ErrBreakerOpen
	}
	err := p.do(ctx, path, hdr, body, out)
	if rejected(err) != nil {
		// The worker is up and judged the request malformed: the client's
		// fault, not the peer's, so its health stays as it was.
		return err
	}
	if err != nil {
		p.failures.Inc()
		p.up.Set(0)
		if p.br.Failure(p.clock.Now()) {
			obs.Inc("cluster.breaker.trips")
		}
		if p.br.State(p.clock.Now()) == serve.BreakerOpen {
			p.brOpen.Set(1)
		}
		return err
	}
	p.br.Success()
	p.up.Set(1)
	p.brOpen.Set(0)
	return nil
}

func (p *peer) do(ctx context.Context, path string, hdr http.Header, body io.Reader, out any) error {
	// Chaos hook: an injected error fails the RPC before it leaves the
	// process (dead peer), a delay stalls it into its shard deadline
	// (slow peer). Site per peer; plans usually use cluster.rpc.*.
	if err := faultinject.At("cluster.rpc." + p.addr); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, body)
	if err != nil {
		return err
	}
	if sr, ok := body.(*io.SectionReader); ok {
		// A bundle image read from its file: declare its length, so the
		// worker sizes its buffer once (byte readers are sized by
		// NewRequest).
		req.ContentLength = sr.Size()
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	t0 := time.Now()
	resp, err := p.client.Do(req)
	p.rpcHist.Observe(time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &e)
		return &statusError{code: resp.StatusCode, msg: e.Error}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// statusError is a worker's non-200 answer: its status and the message
// of its {"error": …} body, if it had one.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	if e.msg == "" {
		return fmt.Sprintf("shard status %d", e.code)
	}
	return fmt.Sprintf("shard status %d: %s", e.code, e.msg)
}

// rejected returns err's worker answer if it is a 400, else nil.
func rejected(err error) *statusError {
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusBadRequest {
		return se
	}
	return nil
}

// score runs one scoring RPC routed for generation gen and returns one
// result per utterance of req: /v1/score/batch for a batch, /v1/score for
// a single utterance. traceparent, when non-empty, propagates the
// coordinator's trace across the hop. The generation echoed in the
// response is re-checked so a worker that hot-swapped between routing and
// admission degrades this shard instead of silently contributing scores
// from another generation.
func (p *peer) score(ctx context.Context, gen int64, traceparent string, req *serve.BatchRequest, batch bool) ([]serve.ScoreResult, error) {
	path, payload := "/v1/score/batch", any(req)
	if !batch {
		path, payload = "/v1/score", &req.Utterances[0]
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	// Decodes either response: a ScoreResponse's result is the embedded
	// ScoreResult, a BatchResponse's are the Results.
	var out struct {
		ClusterGeneration int64               `json:"cluster_generation"`
		Results           []serve.ScoreResult `json:"results"`
		serve.ScoreResult
	}
	if err := p.rpc(ctx, path, p.headers(gen, traceparent), bytes.NewReader(body), &out); err != nil {
		return nil, err
	}
	if out.ClusterGeneration != gen {
		return nil, fmt.Errorf("shard answered for generation %d, routed for %d", out.ClusterGeneration, gen)
	}
	if !batch {
		out.Results = []serve.ScoreResult{out.ScoreResult}
	}
	if len(out.Results) != len(req.Utterances) {
		return nil, fmt.Errorf("shard returned %d results for %d utterances", len(out.Results), len(req.Utterances))
	}
	return out.Results, nil
}

// push sends the worker the exported bundle image, read from its file,
// with the worker's shard manifest as JSON in the ManifestHeader, and
// records the acked generation. Distribution retries under pol with the
// reload retry loop (capped doubling, cut short by ctx) because a push
// races worker startup; the breaker still gates and observes each
// attempt.
func (p *peer) push(ctx context.Context, m persist.Manifest, im *persist.Image, pol serve.ReloadPolicy) (*bundleAck, error) {
	mf, err := json.Marshal(&m)
	if err != nil {
		return nil, err
	}
	hdr := make(http.Header, 2)
	hdr.Set("Content-Type", bundleContentType)
	hdr.Set(ManifestHeader, string(mf))
	var ack bundleAck
	err = serve.Retry(ctx, p.clock, pol, func() {
		obs.Inc("cluster.distribute.retries")
	}, func() error {
		ack = bundleAck{}
		return p.rpc(ctx, "/-/bundle", hdr, im.Reader(), &ack)
	})
	if err != nil {
		return nil, err
	}
	if ack.Generation != m.ClusterGeneration {
		return nil, fmt.Errorf("worker %s acked generation %d, pushed %d", p.addr, ack.Generation, m.ClusterGeneration)
	}
	p.ackedGen.Store(ack.Generation)
	return &ack, nil
}

func (p *peer) headers(gen int64, traceparent string) http.Header {
	h := make(http.Header, 2)
	h.Set(GenerationHeader, fmt.Sprintf("%d", gen))
	if traceparent != "" {
		h.Set("traceparent", traceparent)
	}
	return h
}
