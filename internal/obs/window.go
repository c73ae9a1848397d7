package obs

import (
	"sync/atomic"
	"time"
)

// Rolling-window decorators over the cumulative metrics: a Window is a
// ring of fixed-duration shards, each holding the same lock-free
// Histogram the registry uses for process-lifetime data, and a
// WindowCounter is the same ring over a plain atomic count. Together they
// let /metricsz report live RED metrics (rate over the last 1m/5m,
// windowed latency quantiles, windowed error and degradation counts)
// next to the cumulative values, without sacrificing the "recording is a
// few atomics" cost model: Observe/Add touch exactly one shard, selected
// by quantized wall time. The first writer to reach a ring slot in a new
// epoch installs a fresh shard for that epoch with one compare-and-swap;
// the old shard is dropped, never zeroed in place.
//
// Accuracy contract: a window of W seconds merges every shard whose
// epoch lies inside (now-W, now], i.e. the current partial shard plus
// the full shards behind it, so a "1m" view covers between W and
// W+shardDur seconds of traffic. Every observation made within its epoch
// lands in that epoch's shard and stays there: writers racing to open
// an epoch all end up on the one shard that won the swap. Only a writer
// stalled for a whole ring lap (over 5 minutes) between reading the clock
// and recording can land in a newer shard or in one already dropped; the
// cumulative metrics are never affected.

const (
	// windowShardDur is the ring's resolution; windows are multiples of it.
	windowShardDur = 10 * time.Second
	// windowShardCount covers the largest reported window (5m = 30 full
	// shards) plus the current partial shard, with headroom.
	windowShardCount = 32
)

// WindowStats is one merged window of a Window or WindowCounter, as
// reported under Report.Windows.
type WindowStats struct {
	Count      int64   `json:"count"`
	RatePerSec float64 `json:"rate_per_sec"`
	SumSec     float64 `json:"sum_sec,omitempty"`
	MeanSec    float64 `json:"mean_sec,omitempty"`
	P50Sec     float64 `json:"p50_sec,omitempty"`
	P95Sec     float64 `json:"p95_sec,omitempty"`
	P99Sec     float64 `json:"p99_sec,omitempty"`
}

// WindowsData is the pair of windows every windowed metric reports.
type WindowsData struct {
	M1 WindowStats `json:"1m"`
	M5 WindowStats `json:"5m"`
}

// shard is one epoch's data in a ring slot.
type shard[T any] struct {
	epoch int64
	data  T
}

// ring is the shard ring over quantized wall time that Window and
// WindowCounter share.
type ring[T any] struct {
	shardDur time.Duration
	now      func() time.Time
	slots    []atomic.Pointer[shard[T]]
}

func newRing[T any](shardDur time.Duration, slots int, now func() time.Time) ring[T] {
	if now == nil {
		now = time.Now
	}
	return ring[T]{shardDur: shardDur, now: now, slots: make([]atomic.Pointer[shard[T]], slots)}
}

// epochNow quantizes the clock to shard units.
func (r *ring[T]) epochNow() int64 { return r.now().UnixNano() / int64(r.shardDur) }

// current returns the data of the current epoch's shard, installing a
// fresh shard when the slot still holds an older epoch.
func (r *ring[T]) current() *T {
	e := r.epochNow()
	slot := &r.slots[int(e%int64(len(r.slots)))]
	for {
		sh := slot.Load()
		if sh != nil && sh.epoch >= e {
			return &sh.data
		}
		if fresh := (&shard[T]{epoch: e}); slot.CompareAndSwap(sh, fresh) {
			return &fresh.data
		}
	}
}

// each calls fn on every shard inside the trailing window and returns the
// window's nominal length.
func (r *ring[T]) each(window time.Duration, fn func(*T)) time.Duration {
	if window < r.shardDur {
		window = r.shardDur
	}
	nowE := r.epochNow()
	k := int64(window / r.shardDur)
	for i := range r.slots {
		if sh := r.slots[i].Load(); sh != nil && sh.epoch > nowE-k && sh.epoch <= nowE {
			fn(&sh.data)
		}
	}
	return window
}

// reset drops every shard (Registry.Reset).
func (r *ring[T]) reset() {
	for i := range r.slots {
		r.slots[i].Store(nil)
	}
}

// Window is a rolling-window histogram: a ring of shard Histograms over
// quantized wall time.
type Window struct{ ring[Histogram] }

func newWindow(shardDur time.Duration, shards int, now func() time.Time) *Window {
	return &Window{newRing[Histogram](shardDur, shards, now)}
}

// Observe records one value (seconds) into the current shard.
func (w *Window) Observe(v float64) { w.current().Observe(v) }

// Stats merges every shard inside the trailing window into one
// HistogramData-equivalent summary. Rate is count over the nominal
// window length.
func (w *Window) Stats(window time.Duration) WindowStats {
	var counts [numBuckets + 1]int64
	var count int64
	var sum float64
	window = w.each(window, func(h *Histogram) {
		for b := 0; b <= numBuckets; b++ {
			counts[b] += h.counts[b].Load()
		}
		count += h.count.Load()
		sum += h.Sum()
	})
	st := WindowStats{Count: count, RatePerSec: float64(count) / window.Seconds(), SumSec: sum}
	if count > 0 {
		st.MeanSec = sum / float64(count)
		st.P50Sec = quantileFromCounts(&counts, count, 0.50)
		st.P95Sec = quantileFromCounts(&counts, count, 0.95)
		st.P99Sec = quantileFromCounts(&counts, count, 0.99)
	}
	return st
}

// WindowCounter is a rolling-window counter: the same shard ring as
// Window over a single atomic count per shard.
type WindowCounter struct{ ring[atomic.Int64] }

func newWindowCounter(shardDur time.Duration, shards int, now func() time.Time) *WindowCounter {
	return &WindowCounter{newRing[atomic.Int64](shardDur, shards, now)}
}

// Add increments the current shard by d.
func (w *WindowCounter) Add(d int64) { w.current().Add(d) }

// Inc increments the current shard by one.
func (w *WindowCounter) Inc() { w.Add(1) }

// Stats sums the trailing window.
func (w *WindowCounter) Stats(window time.Duration) WindowStats {
	var count int64
	window = w.each(window, func(v *atomic.Int64) { count += v.Load() })
	return WindowStats{Count: count, RatePerSec: float64(count) / window.Seconds()}
}

// Registry accessors, mirroring Counter/Gauge/Histogram.

// Window returns (creating if needed) the named rolling-window histogram.
func (r *Registry) Window(name string) *Window {
	return lookup(r, r.windows, name, func() *Window { return newWindow(windowShardDur, windowShardCount, nil) })
}

// WindowCounter returns (creating if needed) the named rolling-window
// counter.
func (r *Registry) WindowCounter(name string) *WindowCounter {
	return lookup(r, r.wcounters, name, func() *WindowCounter {
		return newWindowCounter(windowShardDur, windowShardCount, nil)
	})
}

// GetWindow returns the named rolling-window histogram of the default
// registry.
func GetWindow(name string) *Window { return defaultRegistry.Window(name) }

// GetWindowCounter returns the named rolling-window counter of the
// default registry.
func GetWindowCounter(name string) *WindowCounter { return defaultRegistry.WindowCounter(name) }
