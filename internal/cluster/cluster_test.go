package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/testbundle"
)

func scoreRequestFor(b *persist.Bundle, raw *sparse.Vector) serve.ScoreRequest {
	req := serve.ScoreRequest{ID: "u1", FrontEnds: make(map[string]serve.FrontEndInput)}
	for i := range b.FrontEnds {
		req.FrontEnds[b.FrontEnds[i].Name] = serve.FrontEndInput{
			Supervector: &serve.Supervector{Idx: raw.Idx, Val: raw.Val},
		}
	}
	return req
}

// testNet routes coordinator RPCs to in-process worker handlers by host
// name — no sockets, so tests can kill, restart, and replace workers
// deterministically.
type testNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]bool
}

func newTestNet() *testNet {
	return &testNet{handlers: make(map[string]http.Handler), down: make(map[string]bool)}
}

func (n *testNet) register(host string, h http.Handler) {
	n.mu.Lock()
	n.handlers[host] = h
	n.mu.Unlock()
}

// setDown simulates a crashed (or restarted) worker process: every RPC
// to the host fails like a refused connection.
func (n *testNet) setDown(host string, down bool) {
	n.mu.Lock()
	n.down[host] = down
	n.mu.Unlock()
}

func (n *testNet) RoundTrip(req *http.Request) (*http.Response, error) {
	n.mu.Lock()
	h, ok := n.handlers[req.URL.Host]
	down := n.down[req.URL.Host]
	n.mu.Unlock()
	if !ok || down {
		return nil, fmt.Errorf("dial tcp %s: connection refused", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// fakeClock drives breaker cooldowns by hand. After never fires (the
// repair loop stays dormant; tests call repair directly, and fleets push
// without retries) — the de-flake contract: no cluster test waits on a
// wall clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time { return make(chan time.Time) }

// fleet is a coordinator plus in-process workers wired through a testNet.
type fleet struct {
	coord   *Coordinator
	workers []*Worker
	spools  []string
	hosts   []string
	dir     string
	net     *testNet
	clock   *fakeClock
	bundle  *persist.Bundle
}

var fleetSeq atomic.Int64

// newFleet builds an n-worker fleet over the seed-1 test bundle. Hosts
// are unique per call so per-peer obs metrics never bleed across tests.
// Distribution is NOT run — tests choose when (and whether) it happens.
func newFleet(t testing.TB, n int, mutate func(*CoordinatorConfig)) *fleet {
	t.Helper()
	return newFleetBundle(t, n, testbundle.Write, mutate)
}

// newFleetBundle is newFleet over any bundle writer (the cascade tests
// need the tier-1 model in the coordinator's full bundle).
func newFleetBundle(t testing.TB, n int, write func(t testing.TB, dir string, seed uint64) *persist.Bundle, mutate func(*CoordinatorConfig)) *fleet {
	t.Helper()
	obs.Reset()
	dir := t.TempDir()
	b := write(t, dir, 1)
	f := &fleet{dir: dir, net: newTestNet(), clock: newFakeClock(), bundle: b}
	id := fleetSeq.Add(1)
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("shard%d-%d.test:91%02d", id, i, i)
		spool := t.TempDir()
		w, err := NewWorker(serve.Config{ModelDir: spool})
		if err != nil {
			t.Fatal(err)
		}
		f.net.register(host, w.Handler())
		f.workers = append(f.workers, w)
		f.spools = append(f.spools, spool)
		f.hosts = append(f.hosts, host)
	}
	cfg := CoordinatorConfig{
		Serve:     serve.Config{ModelDir: dir},
		Peers:     f.hosts,
		Transport: f.net,
		clock:     f.clock,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = c
	return f
}

// restartWorker replaces host's worker with a fresh one over an empty
// spool — a process restart that lost its disk.
func (f *fleet) restartWorker(t *testing.T, i int) *Worker {
	t.Helper()
	spool := t.TempDir()
	w, err := NewWorker(serve.Config{ModelDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	f.workers[i], f.spools[i] = w, spool
	f.net.register(f.hosts[i], w.Handler())
	f.net.setDown(f.hosts[i], false)
	return w
}

func postJSON(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec, out
}

func getJSON(t *testing.T, h http.Handler, path string, v any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if err := json.NewDecoder(rec.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// scoreFleet posts a /v1/score request at the coordinator and decodes
// the response, failing the test on non-2xx unless allowErr.
func (f *fleet) score(t *testing.T, req serve.ScoreRequest) (*httptest.ResponseRecorder, serve.ScoreResponse) {
	t.Helper()
	rec, body := postJSON(t, f.coord.Handler(), "/v1/score", req)
	var sr serve.ScoreResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("bad score response: %v: %s", err, body)
		}
	}
	return rec, sr
}

func (f *fleet) peerStatus(t *testing.T, host string) PeerStatus {
	t.Helper()
	var cz Clusterz
	getJSON(t, f.coord.Handler(), "/clusterz", &cz)
	for _, p := range cz.Peers {
		if p.Addr == host {
			return p
		}
	}
	t.Fatalf("peer %s not in clusterz %+v", host, cz)
	return PeerStatus{}
}

func mustDistribute(t testing.TB, f *fleet) {
	t.Helper()
	if err := f.coord.Distribute(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// No binary links this; the package's tests use it as a referee or
// fixture.

// Handler returns the process's HTTP handler tree.
func (n *node) Handler() http.Handler { return n.mux }
