package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// manualClock drives window shards deterministically.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// newWindow returns a histogram keeping a window of the given shape on
// now's clock, and newWindowCounter the same for a counter; stats reads
// the trailing window of either.
func newWindow(shardDur time.Duration, shards int, now func() time.Time) *Histogram {
	h := new(Histogram)
	h.win.Store(newRing[Histogram](shardDur, shards, now))
	return h
}

func newWindowCounter(shardDur time.Duration, shards int, now func() time.Time) *Counter {
	c := new(Counter)
	c.win.Store(newRing[atomic.Int64](shardDur, shards, now))
	return c
}

func (h *Histogram) stats(window time.Duration) WindowStats { return histWindow(h.win.Load(), window) }

func (c *Counter) stats(window time.Duration) WindowStats { return countWindow(c.win.Load(), window) }

func TestWindowMergesTrailingShards(t *testing.T) {
	clk := newManualClock()
	w := newWindow(10*time.Second, 32, clk.Now)

	// Three shards of observations, 10 s apart.
	w.Observe(0.001)
	w.Observe(0.001)
	clk.Advance(10 * time.Second)
	w.Observe(0.004)
	clk.Advance(10 * time.Second)
	w.Observe(0.016)

	st := w.stats(time.Minute)
	if st.Count != 4 {
		t.Fatalf("1m count = %d, want 4", st.Count)
	}
	wantRate := 4.0 / 60.0
	if math.Abs(st.RatePerSec-wantRate) > 1e-12 {
		t.Fatalf("1m rate = %g, want %g", st.RatePerSec, wantRate)
	}
	if st.MeanSec <= 0 || st.P50Sec <= 0 || st.P99Sec < st.P50Sec || st.P95Sec < st.P50Sec {
		t.Fatalf("degenerate quantiles: %+v", st)
	}
	// p50 of {1ms,1ms,4ms,16ms} lands in the 1ms-ish bucket; p99 must
	// cover the 16ms observation's bucket upper bound.
	if st.P99Sec < 0.016 {
		t.Fatalf("p99 = %g, want ≥ 0.016", st.P99Sec)
	}
}

func TestWindowExpiresOldShards(t *testing.T) {
	clk := newManualClock()
	w := newWindow(10*time.Second, 32, clk.Now)

	w.Observe(0.002)
	clk.Advance(70 * time.Second) // out of the 1m window, inside 5m
	w.Observe(0.008)

	if got := w.stats(time.Minute).Count; got != 1 {
		t.Fatalf("1m count = %d, want 1 (old shard must have aged out)", got)
	}
	if got := w.stats(5 * time.Minute).Count; got != 2 {
		t.Fatalf("5m count = %d, want 2", got)
	}

	clk.Advance(6 * time.Minute) // beyond 5m: everything aged out
	if got := w.stats(5 * time.Minute).Count; got != 0 {
		t.Fatalf("5m count after 6m idle = %d, want 0", got)
	}
}

func TestWindowShardRecycling(t *testing.T) {
	clk := newManualClock()
	// A tiny ring: 4 shards of 10 s wrap every 40 s, so advancing a full
	// lap must land on a recycled (zeroed) shard, not resurrect old data.
	w := newWindow(10*time.Second, 4, clk.Now)
	w.Observe(1)
	clk.Advance(40 * time.Second)
	w.Observe(2)
	if got := w.stats(10 * time.Second).Count; got != 1 {
		t.Fatalf("current-shard count = %d, want 1 (lap must recycle)", got)
	}
}

func TestWindowCounter(t *testing.T) {
	clk := newManualClock()
	w := newWindowCounter(10*time.Second, 32, clk.Now)
	w.Add(3)
	clk.Advance(30 * time.Second)
	w.Inc()
	if got := w.stats(time.Minute).Count; got != 4 {
		t.Fatalf("1m count = %d, want 4", got)
	}
	clk.Advance(50 * time.Second)
	if got := w.stats(time.Minute).Count; got != 1 {
		t.Fatalf("1m count = %d, want 1 after first shard aged out", got)
	}
	if got := w.stats(5 * time.Minute).Count; got != 4 {
		t.Fatalf("5m count = %d, want 4", got)
	}
}

// TestWindowConcurrentObserve: writers racing into each new epoch — the
// moment its ring slot is opened or recycled — must not lose a single
// observation, in the histogram ring or the counter ring.
func TestWindowConcurrentObserve(t *testing.T) {
	clk := newManualClock()
	w := newWindow(10*time.Second, 32, clk.Now)
	c := newWindowCounter(10*time.Second, 32, clk.Now)
	// 40 epochs lap the 32-slot ring; the 5m window holds the current
	// epoch plus the 30 full ones behind it.
	const epochs, writers, per = 40, 8, 100
	for e := 0; e < epochs; e++ {
		clk.Advance(10 * time.Second)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < per; i++ {
					w.Observe(0.001)
					c.Inc()
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	want := int64(31 * writers * per)
	if got := w.stats(5 * time.Minute).Count; got != want {
		t.Fatalf("window count = %d, want %d", got, want)
	}
	if got := c.stats(5 * time.Minute).Count; got != want {
		t.Fatalf("counter count = %d, want %d", got, want)
	}
}

func TestRegistryWindowsInSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Histogram("svc.latency").KeepWindow().Observe(0.005)
	r.Counter("svc.errors").KeepWindow().Add(2)
	r.Histogram("svc.plain").Observe(0.005)
	rep := r.Snapshot()
	wd, ok := rep.Windows["svc.latency"]
	if !ok {
		t.Fatal("snapshot missing windowed histogram")
	}
	if wd.M1.Count != 1 || wd.M5.Count != 1 {
		t.Fatalf("windowed histogram counts = %+v, want 1/1", wd)
	}
	if wd.M1.RatePerSec <= 0 {
		t.Fatalf("windowed rate = %g, want > 0", wd.M1.RatePerSec)
	}
	ec, ok := rep.Windows["svc.errors"]
	if !ok || ec.M1.Count != 2 {
		t.Fatalf("windowed counter = %+v (ok=%v), want count 2", ec, ok)
	}
	if _, ok := rep.Windows["svc.plain"]; ok {
		t.Fatal("a histogram that keeps no window reported one")
	}
	if rep.Histograms["svc.latency"].Count != 1 || rep.Counters["svc.errors"] != 2 {
		t.Fatalf("cumulative values missed the windowed calls: %+v %+v", rep.Histograms, rep.Counters)
	}

	r.Reset()
	rep = r.Snapshot()
	if wd, ok := rep.Windows["svc.latency"]; !ok || wd.M1.Count != 0 {
		t.Fatalf("after Reset, windowed count = %d (kept: %v), want 0 and still kept", wd.M1.Count, ok)
	}
}

// TestWindowSteadyRate: steady traffic of one observation a second
// reads 1/s on both views at every offset into a shard, because each
// view divides by the span its shards actually cover.
func TestWindowSteadyRate(t *testing.T) {
	clk := newManualClock()
	h := newWindow(10*time.Second, 32, clk.Now)
	c := newWindowCounter(10*time.Second, 32, clk.Now)
	// Fill the 5m view and its partial shard, then walk two more shards.
	for i := 0; i < 330; i++ {
		h.Observe(0.001)
		c.Inc()
		clk.Advance(time.Second)
		if i < 310 {
			continue
		}
		for _, view := range []time.Duration{time.Minute, 5 * time.Minute} {
			for name, st := range map[string]WindowStats{"histogram": h.stats(view), "counter": c.stats(view)} {
				if math.Abs(st.RatePerSec-1) > 0.01 {
					t.Fatalf("%s %v rate at %ds into the shard = %g, want 1±1%%",
						name, view, (i+1)%10, st.RatePerSec)
				}
			}
		}
	}
}

// TestWindowedMetricsConcurrent: handles fetched, windowed and fed from
// many goroutines through the registry while snapshots read them lose no
// observation, in the cumulative values or the windows.
func TestWindowedMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	const writers, per = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.Histogram("svc.latency").KeepWindow()
			c := r.Counter("svc.errors").KeepWindow()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rep := r.Snapshot()
	const want = writers * per
	if rep.Histograms["svc.latency"].Count != want || rep.Counters["svc.errors"] != want {
		t.Fatalf("cumulative = %d/%d, want %d", rep.Histograms["svc.latency"].Count, rep.Counters["svc.errors"], want)
	}
	for _, name := range []string{"svc.latency", "svc.errors"} {
		if got := rep.Windows[name].M1.Count; got != want {
			t.Fatalf("%s 1m window count = %d, want %d", name, got, want)
		}
	}
}
