package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/testbundle"
)

// backoffClock records every backoff wait. After fires at once, unless
// onAfter is set: then onAfter runs instead and the wait never ends.
type backoffClock struct {
	mu      sync.Mutex
	waits   []time.Duration
	onAfter func()
}

func (c *backoffClock) Now() time.Time { return time.Unix(1_700_000_000, 0) }

func (c *backoffClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.waits = append(c.waits, d)
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if c.onAfter != nil {
		c.onAfter()
		return ch
	}
	ch <- c.Now()
	return ch
}

func (c *backoffClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.waits...)
}

// TestPushBackoffCappedAndCancellable: a push to a dead worker retries
// on the reload loop's doubling schedule, capped at the policy's default
// 2 s backoff cap, and a ctx cancelled during a backoff ends the push at
// once instead of waiting the backoff out.
func TestPushBackoffCappedAndCancellable(t *testing.T) {
	deadPeer := func(clk serve.Clock) *peer {
		// No handler is registered for the host, so every RPC fails like a
		// refused connection; the breaker never opens within the test.
		host := fmt.Sprintf("dead%d.test:9100", fleetSeq.Add(1))
		return newPeer(host, serve.ReloadPolicy{TripAfter: 1000}, newTestNet(), clk, obs.GetHistogram)
	}
	mf := persist.Manifest{ClusterGeneration: 1}
	dir := t.TempDir()
	testbundle.Write(t, dir, 1)
	_, _, _, im, err := persist.ResolveBundleImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()

	pol := serve.ReloadPolicy{Retries: 7, BaseBackoff: 100 * time.Millisecond}
	clk := &backoffClock{}
	if _, err := deadPeer(clk).push(context.Background(), mf, im, pol); err == nil {
		t.Fatal("push to a dead worker succeeded")
	}
	ms := time.Millisecond
	want := []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms, 2000 * ms}
	if got := clk.recorded(); !reflect.DeepEqual(got, want) {
		t.Fatalf("backoff waits %v, want %v", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk = &backoffClock{onAfter: cancel}
	done := make(chan error, 1)
	go func() {
		_, err := deadPeer(clk).push(ctx, mf, im, pol)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled push to a dead worker succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled push is still waiting out its backoff")
	}
	if got := clk.recorded(); len(got) != 1 {
		t.Fatalf("cancelled push waited %d times (%v), want 1", len(got), got)
	}
}

// TestPushZeroRetriesIsOneRPC: a coordinator whose policy leaves Retries
// at zero (lred -reload-retries 0) pushes a dead worker exactly once per
// distribution and never backs off.
func TestPushZeroRetriesIsOneRPC(t *testing.T) {
	clk := &backoffClock{}
	f := newFleet(t, 2, func(cfg *CoordinatorConfig) {
		cfg.Serve.Reload = serve.ReloadPolicy{Retries: 0, TripAfter: 1000}
		cfg.clock = clk
	})
	f.net.setDown(f.hosts[1], true)
	if err := f.coord.Distribute(context.Background()); err == nil {
		t.Fatal("distribution to a dead worker succeeded")
	}
	if got := f.peerStatus(t, f.hosts[1]).Failures; got != 1 {
		t.Fatalf("push with Retries 0 made %d RPCs to the dead worker, want 1", got)
	}
	if waits := clk.recorded(); len(waits) != 0 {
		t.Fatalf("push with Retries 0 backed off %v", waits)
	}
}

// TestCoordinatorFollowsServeReloadPolicy: Serve.Reload is the one
// policy of a coordinator's pushes and peer breakers. A push to a dead
// worker retries Retries times, waiting BaseBackoff doubling up to the
// 2 s cap; the peer's breaker opens after TripAfter consecutive RPC
// failures, fails the remaining retries fast without an RPC, and
// half-opens once Cooldown has passed.
func TestCoordinatorFollowsServeReloadPolicy(t *testing.T) {
	ms := time.Millisecond
	pol := serve.ReloadPolicy{Retries: 4, BaseBackoff: 700 * ms, TripAfter: 2, Cooldown: 7 * time.Second}
	clk := &backoffClock{}
	f := newFleet(t, 2, func(cfg *CoordinatorConfig) {
		cfg.Serve.Reload = pol
		cfg.clock = clk
	})
	f.net.setDown(f.hosts[1], true)
	err := f.coord.Distribute(context.Background())
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("distribution to a dead worker: %v, want its open breaker's error", err)
	}
	if want := []time.Duration{700 * ms, 1400 * ms, 2000 * ms, 2000 * ms}; !reflect.DeepEqual(clk.recorded(), want) {
		t.Fatalf("push backoff waits %v, want %v", clk.recorded(), want)
	}
	st := f.peerStatus(t, f.hosts[1])
	if st.Failures != int64(pol.TripAfter) || st.Breaker != serve.BreakerOpen {
		t.Fatalf("dead peer after the push: %d RPC failures, breaker %s; want %d and open", st.Failures, st.Breaker, pol.TripAfter)
	}
	if got := obs.GetCounter("cluster.breaker.trips").Value(); got != 1 {
		t.Fatalf("cluster.breaker.trips = %d, want 1", got)
	}
	br := f.coord.peers[1].br
	if got := br.State(clk.Now().Add(pol.Cooldown - ms)); got != serve.BreakerOpen {
		t.Fatalf("breaker %s just before its cooldown ends, want open", got)
	}
	if got := br.State(clk.Now().Add(pol.Cooldown)); got != serve.BreakerHalfOpen {
		t.Fatalf("breaker %s once its cooldown passed, want half-open", got)
	}
	if st := f.peerStatus(t, f.hosts[0]); st.Failures != 0 || st.Breaker != serve.BreakerClosed || st.Generation != 1 {
		t.Fatalf("live peer %+v, want no failures, closed, generation 1", st)
	}
}

// TestNoTraceCoordinatorKeepsNoPeerWindows: -no-trace turns the shard
// RPC windows off like every other window. A coordinator with tracing
// disabled, over peer addresses no other test used, scores one request;
// /metricsz then counts its RPCs in the cumulative histograms and keeps
// no rolling window for those peers.
func TestNoTraceCoordinatorKeepsNoPeerWindows(t *testing.T) {
	f := newFleet(t, 2, func(cfg *CoordinatorConfig) { cfg.Serve.DisableTracing = true })
	mustDistribute(t, f)
	h := f.coord.Handler()
	if rec, body := postJSON(t, h, "/v1/score", scoreRequestFor(f.bundle, testbundle.Vector(7))); rec.Code != http.StatusOK {
		t.Fatalf("score status %d: %s", rec.Code, body)
	}
	var rep obs.Report
	getJSON(t, h, "/metricsz", &rep)
	for _, host := range f.hosts {
		name := "cluster.rpc." + host + ".seconds"
		if rep.Histograms[name].Count == 0 {
			t.Errorf("%s counted no RPC", name)
		}
		if _, ok := rep.Windows[name]; ok {
			t.Errorf("tracing is off but %s keeps a window", name)
		}
	}
}
