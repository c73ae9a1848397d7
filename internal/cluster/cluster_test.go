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

	"repro/internal/fusion"
	"repro/internal/ngram"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// Test fixture: the same tiny synthetic bundle as internal/serve's tests
// (2 front-ends over a 5-phone order-2 space, 3 languages, fusion
// backend) so fleet results can be checked bit-identical against the
// in-process scoring they shard out.

const (
	tbPhones = 5
	tbOrder  = 2
	tbLangs  = 3
)

func testBundle(seed uint64) *persist.Bundle {
	space := ngram.NewSpace(tbPhones, tbOrder)
	r := rng.New(seed)
	b := &persist.Bundle{Languages: []string{"alpha", "beta", "gamma"}}
	var all [][]*sparse.Vector
	var labels []int
	for f := 0; f < 2; f++ {
		var xs []*sparse.Vector
		labels = labels[:0]
		for i := 0; i < 60; i++ {
			k := i % tbLangs
			m := map[int32]float64{
				int32(k * 7):                       2 + 0.3*r.Norm(),
				int32((k*7 + f + 1) % space.Dim()): 1 + 0.2*r.Norm(),
				int32(r.Intn(space.Dim())):         0.5 * r.Float64(),
			}
			xs = append(xs, sparse.FromMap(m))
			labels = append(labels, k)
		}
		tf := ngram.EstimateTFLLR(xs, space.Dim(), 1e-5)
		for _, v := range xs {
			tf.Apply(v)
		}
		opt := svm.DefaultOptions()
		opt.Seed = seed + uint64(f)
		b.FrontEnds = append(b.FrontEnds, persist.FrontEndModel{
			Name:      fmt.Sprintf("FE%d", f),
			NumPhones: tbPhones,
			Order:     tbOrder,
			TFLLR:     tf,
			OVR:       svm.TrainOneVsRest(xs, labels, tbLangs, space.Dim(), opt),
		})
		all = append(all, xs)
	}
	var devX [][]float64
	var devY []int
	for i := range all[0] {
		s0 := b.FrontEnds[0].OVR.Scores(all[0][i])
		s1 := b.FrontEnds[1].OVR.Scores(all[1][i])
		for k := 0; k < tbLangs; k++ {
			devX = append(devX, []float64{s0[k], s1[k]})
			if labels[i] == k {
				devY = append(devY, 1)
			} else {
				devY = append(devY, 0)
			}
		}
	}
	bk, err := fusion.Train(devX, devY, 2, fusion.DefaultConfig())
	if err != nil {
		panic(err)
	}
	b.Fusion = bk
	return b
}

func writeTestBundle(t testing.TB, dir string, seed uint64) *persist.Bundle {
	t.Helper()
	b := testBundle(seed)
	if err := persist.SaveBundle(dir, b, persist.Manifest{Seed: seed, Scale: "test"}); err != nil {
		t.Fatal(err)
	}
	return b
}

// testVector is a deterministic raw (pre-TFLLR) supervector inside the
// fixture space.
func testVector(seed uint64) *sparse.Vector {
	r := rng.New(seed ^ 0xbeef)
	space := ngram.NewSpace(tbPhones, tbOrder)
	m := make(map[int32]float64)
	for i := 0; i < 6; i++ {
		m[int32(r.Intn(space.Dim()))] = r.Float64()
	}
	return sparse.FromMap(m)
}

// expectedScores is the per-front-end ground truth: TFLLR-apply then
// OVR-score on a fresh copy, exactly what each shard must produce.
func expectedScores(b *persist.Bundle, raw *sparse.Vector) map[string][]float64 {
	out := make(map[string][]float64)
	for i := range b.FrontEnds {
		fe := &b.FrontEnds[i]
		v := raw.Clone()
		if fe.TFLLR != nil {
			fe.TFLLR.Apply(v)
		}
		out[fe.Name] = fe.OVR.Scores(v)
	}
	return out
}

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
	return newFleetBundle(t, n, writeTestBundle, mutate)
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
		w, err := NewWorker(WorkerConfig{Spool: spool, Serve: serve.Config{BatchWait: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		f.net.register(host, w.Handler())
		f.workers = append(f.workers, w)
		f.spools = append(f.spools, spool)
		f.hosts = append(f.hosts, host)
	}
	cfg := CoordinatorConfig{
		ModelDir:    dir,
		Peers:       f.hosts,
		Transport:   f.net,
		clock:       f.clock,
		PushRetries: -1, // no retries by default: tests assert single-attempt outcomes
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
	w, err := NewWorker(WorkerConfig{Spool: t.TempDir(), Serve: serve.Config{BatchWait: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	f.workers[i] = w
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

func sameRows(t *testing.T, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("scored %d front-ends, want %d", len(got), len(want))
	}
	for fe, wrow := range want {
		grow := got[fe]
		if len(grow) != len(wrow) {
			t.Fatalf("%s: %d scores, want %d", fe, len(grow), len(wrow))
		}
		for k := range wrow {
			if grow[k] != wrow[k] {
				t.Fatalf("%s score[%d] = %v, want %v (not bit-identical)", fe, k, grow[k], wrow[k])
			}
		}
	}
}
