// Package obs is the observability substrate of the reproduction: a
// zero-dependency (stdlib-only) process-wide registry of counters, gauges,
// and latency histograms — each counter or histogram optionally keeping a
// rolling 1m/5m window of itself (window.go) — plus hierarchical
// wall-time spans (span.go) and a machine-readable run Report
// (report.go).
//
// Every pipeline stage — corpus generation, decoding, supervector
// extraction, TFLLR scaling, SVM training/scoring, DBA boosting rounds,
// fusion — records into the default registry, so any entry point (cmd/lre,
// tests, benches) can snapshot a consistent picture of where time and work
// went. The paper's own evaluation hinges on per-stage cost accounting
// (Table 5's real-time factors); obs makes that accounting a first-class,
// always-on facility instead of ad-hoc stopwatches.
//
// Design constraints:
//
//   - Recording must be cheap enough to leave enabled unconditionally:
//     counters and gauges are single atomics, histograms are a bounded
//     bucket search plus two atomics, and spans cost two time.Now calls.
//     A counter or histogram also loads its window pointer; one that
//     keeps a window (KeepWindow) records the same call into the current
//     shard too, one clock read and the same few atomics again.
//     There is no global "enabled" switch to branch on — when no sink
//     (trace/metrics file) is requested the data simply stays in memory.
//   - Handles remain valid across Reset: Reset zeroes values and empties
//     windows in place so call sites may cache *Counter/*Gauge/*Histogram
//     in package vars.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64, with an optional rolling
// window (window.go).
type Counter struct {
	v   atomic.Int64
	win atomic.Pointer[ring[atomic.Int64]]
}

// Add increments the counter, and its window when it keeps one, by d.
func (c *Counter) Add(d int64) {
	c.v.Add(d)
	if w := c.win.Load(); w != nil {
		w.current().Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// numBuckets covers 1 µs … ~16.8 s in powers of two, which spans every
// latency this codebase produces (per-utterance decode through full
// pipeline builds land inside it; anything slower lands in +Inf).
const numBuckets = 25

// Histogram is a fixed exponential-bucket latency histogram (seconds).
// Bucket i counts observations ≤ 1e-6·2^i; the final slot is +Inf. Its
// optional rolling window (window.go) is a ring of shard Histograms.
type Histogram struct {
	counts  [numBuckets + 1]atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
	count   atomic.Int64
	win     atomic.Pointer[ring[Histogram]]
}

// BucketBound returns the upper bound (seconds) of bucket i, or +Inf for
// the overflow slot.
func BucketBound(i int) float64 {
	if i >= numBuckets {
		return math.Inf(1)
	}
	return 1e-6 * math.Pow(2, float64(i))
}

// Observe records one value (seconds), into the window too when h
// keeps one.
func (h *Histogram) Observe(v float64) {
	h.observe(v)
	if w := h.win.Load(); w != nil {
		w.current().observe(v)
	}
}

func (h *Histogram) observe(v float64) {
	b := 0
	for bound := 1e-6; b < numBuckets && v > bound; b++ {
		bound *= 2
	}
	h.counts[b].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Quantile returns an upper-bound estimate of the p-quantile (0 ≤ p ≤ 1)
// from the bucket counts.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	var counts [numBuckets + 1]int64
	for i := range counts {
		counts[i] = h.counts[i].Load()
	}
	return quantileFromCounts(&counts, total, p)
}

// quantileFromCounts is the shared bucket-walk behind Histogram.Quantile
// and the merged-window quantiles of window.go.
func quantileFromCounts(counts *[numBuckets + 1]int64, total int64, p float64) float64 {
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i <= numBuckets; i++ {
		cum += counts[i]
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return math.Inf(1)
}

// reset zeroes the histogram in place and empties its window.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
	if w := h.win.Load(); w != nil {
		w.reset()
	}
}

// maxRoots bounds how many finished root spans a registry retains (a
// benchmark looping over an instrumented stage would otherwise grow the
// trace without bound). Later roots are counted in DroppedSpans.
const maxRoots = 4096

// Registry holds named metrics and the finished root spans of a trace.
// The zero value is not usable; call NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu  sync.Mutex
	roots   []*Span
	dropped int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, r.counters, name, newZero[Counter])
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, r.gauges, name, newZero[Gauge])
}

// Histogram returns (creating if needed) the named latency histogram.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, r.hists, name, newZero[Histogram])
}

// newZero makes a zero-valued metric.
func newZero[T any]() *T { return new(T) }

// lookup returns the metric registered under name in m, creating it with
// mk on first use. The hit path takes only the read lock.
func lookup[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[name]; ok {
		return v
	}
	v = mk()
	m[name] = v
	return v
}

// Reset zeroes every metric and empties every window in place (existing
// handles stay valid and keep their windows) and clears the collected
// trace.
func (r *Registry) Reset() {
	r.mu.RLock()
	for _, c := range r.counters {
		c.v.Store(0)
		if w := c.win.Load(); w != nil {
			w.reset()
		}
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.mu.RUnlock()
	r.spanMu.Lock()
	r.roots = nil
	r.dropped = 0
	r.spanMu.Unlock()
}

// recordRoot files a finished root span into the trace.
func (r *Registry) recordRoot(s *Span) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	if len(r.roots) >= maxRoots {
		r.dropped++
		return
	}
	r.roots = append(r.roots, s)
}

// Convenience functions on the default registry.

// GetCounter returns the named counter of the default registry.
func GetCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// GetGauge returns the named gauge of the default registry.
func GetGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// GetHistogram returns the named histogram of the default registry.
func GetHistogram(name string) *Histogram { return defaultRegistry.Histogram(name) }

// Add increments a default-registry counter by d.
func Add(name string, d int64) { defaultRegistry.Counter(name).Add(d) }

// Inc increments a default-registry counter by one.
func Inc(name string) { defaultRegistry.Counter(name).Inc() }

// SetGauge stores v into a default-registry gauge.
func SetGauge(name string, v float64) { defaultRegistry.Gauge(name).Set(v) }

// Observe records a latency (seconds) into a default-registry histogram.
func Observe(name string, v float64) { defaultRegistry.Histogram(name).Observe(v) }

// Reset zeroes the default registry (tests and repeated runs).
func Reset() { defaultRegistry.Reset() }
