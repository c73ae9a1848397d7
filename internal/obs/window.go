package obs

import (
	"sync/atomic"
	"time"
)

// Rolling windows inside the cumulative metrics: a Histogram or Counter
// that keeps a window (KeepWindow) also records every observation into a
// ring of fixed-duration shards — each shard a lock-free Histogram, or a
// plain atomic count for a Counter. They let /metricsz report live RED
// metrics (rate over the last 1m/5m, windowed latency quantiles,
// windowed error and degradation counts) next to the cumulative values,
// from the same handle and the same call, without sacrificing the
// "recording is a few atomics" cost model: an observation touches
// exactly one shard, selected by quantized wall time. The first writer to
// reach a ring slot in a new epoch installs a fresh shard for that epoch
// with one compare-and-swap; the old shard is dropped, never zeroed in
// place.
//
// Accuracy contract: a window of W seconds merges the current partial
// shard plus the W/shardDur full shards behind it, so a "1m" view covers
// between W and W+shardDur seconds of traffic, and its rate divides by
// exactly the span it covers (the full shards plus the time elapsed in
// the current one). Every observation made within its epoch lands in
// that epoch's shard and stays there: writers racing to open an epoch
// all end up on the one shard that won the swap. Only a writer stalled
// for a whole ring lap (over 5 minutes) between reading the clock and
// recording can land in a newer shard or in one already dropped; the
// cumulative metrics are never affected.

const (
	// windowShardDur is the ring's resolution; windows are multiples of it.
	windowShardDur = 10 * time.Second
	// windowShardCount covers the largest reported window (5m = 30 full
	// shards) plus the current partial shard, with headroom.
	windowShardCount = 32
)

// WindowStats is one merged window of a windowed Histogram or Counter,
// as reported under Report.Windows.
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

// ring is the shard ring over quantized wall time behind a windowed
// Histogram or Counter.
type ring[T any] struct {
	shardDur time.Duration
	now      func() time.Time
	slots    []atomic.Pointer[shard[T]]
}

func newRing[T any](shardDur time.Duration, slots int, now func() time.Time) *ring[T] {
	if now == nil {
		now = time.Now
	}
	return &ring[T]{shardDur: shardDur, now: now, slots: make([]atomic.Pointer[shard[T]], slots)}
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

// each calls fn on the current shard and the window/shardDur (at least
// one) full shards behind it, and returns the span they cover.
func (r *ring[T]) each(window time.Duration, fn func(*T)) time.Duration {
	k := max(int64(window/r.shardDur), 1)
	now := r.now().UnixNano()
	nowE := now / int64(r.shardDur)
	for i := range r.slots {
		if sh := r.slots[i].Load(); sh != nil && sh.epoch >= nowE-k && sh.epoch <= nowE {
			fn(&sh.data)
		}
	}
	return time.Duration(k)*r.shardDur + time.Duration(now-nowE*int64(r.shardDur))
}

// reset drops every shard (Registry.Reset).
func (r *ring[T]) reset() {
	for i := range r.slots {
		r.slots[i].Store(nil)
	}
}

// KeepWindow makes h also record into a rolling window, reported by
// Snapshot under Report.Windows. Idempotent; returns h.
func (h *Histogram) KeepWindow() *Histogram {
	h.win.CompareAndSwap(nil, newRing[Histogram](windowShardDur, windowShardCount, nil))
	return h
}

// KeepWindow makes c also count into a rolling window, reported by
// Snapshot under Report.Windows. Idempotent; returns c.
func (c *Counter) KeepWindow() *Counter {
	c.win.CompareAndSwap(nil, newRing[atomic.Int64](windowShardDur, windowShardCount, nil))
	return c
}

// histWindow merges every shard inside the trailing window into one
// HistogramData-equivalent summary.
func histWindow(r *ring[Histogram], window time.Duration) WindowStats {
	var counts [numBuckets + 1]int64
	var count int64
	var sum float64
	span := r.each(window, func(h *Histogram) {
		for b := 0; b <= numBuckets; b++ {
			counts[b] += h.counts[b].Load()
		}
		count += h.count.Load()
		sum += h.Sum()
	})
	st := WindowStats{Count: count, RatePerSec: float64(count) / span.Seconds(), SumSec: sum}
	if count > 0 {
		st.MeanSec = sum / float64(count)
		st.P50Sec = quantileFromCounts(&counts, count, 0.50)
		st.P95Sec = quantileFromCounts(&counts, count, 0.95)
		st.P99Sec = quantileFromCounts(&counts, count, 0.99)
	}
	return st
}

// countWindow sums the trailing window.
func countWindow(r *ring[atomic.Int64], window time.Duration) WindowStats {
	var count int64
	span := r.each(window, func(v *atomic.Int64) { count += v.Load() })
	return WindowStats{Count: count, RatePerSec: float64(count) / span.Seconds()}
}

// windows reports a ring's 1m and 5m views through stats.
func windows[T any](r *ring[T], stats func(*ring[T], time.Duration) WindowStats) WindowsData {
	return WindowsData{M1: stats(r, time.Minute), M5: stats(r, 5*time.Minute)}
}
