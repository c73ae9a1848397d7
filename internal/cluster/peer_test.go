package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/serve"
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
// on the reload loop's doubling schedule, capped at
// serve.DefaultMaxBackoff, and a ctx cancelled during a backoff ends the
// push at once instead of waiting the backoff out.
func TestPushBackoffCappedAndCancellable(t *testing.T) {
	deadPeer := func(clk serve.Clock) *peer {
		// No handler is registered for the host, so every RPC fails like a
		// refused connection; the breaker never opens within the test.
		host := fmt.Sprintf("dead%d.test:9100", fleetSeq.Add(1))
		return newPeer(host, serve.BreakerPolicy{TripAfter: 1000}, newTestNet(), clk)
	}
	mf := persist.Manifest{ClusterGeneration: 1}

	clk := &backoffClock{}
	if _, err := deadPeer(clk).push(context.Background(), mf, nil, 7, 100*time.Millisecond); err == nil {
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
		_, err := deadPeer(clk).push(ctx, mf, nil, 7, 100*time.Millisecond)
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
