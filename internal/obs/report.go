package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// SpanData is the serializable form of a finished span subtree.
type SpanData struct {
	Name        string             `json:"name"`
	Start       time.Time          `json:"start"`
	DurationSec float64            `json:"duration_sec"`
	Attrs       map[string]float64 `json:"attrs,omitempty"`
	Labels      map[string]string  `json:"labels,omitempty"`
	Children    []*SpanData        `json:"children,omitempty"`
}

// Find returns the first span named name in a depth-first walk of the
// subtree (itself included), or nil. Trace consumers use it to pull a
// stage's measured duration back out of a serialized report.
func (d *SpanData) Find(name string) *SpanData {
	if d.Name == name {
		return d
	}
	for _, c := range d.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	LE    float64 `json:"le"` // upper bound in seconds; +Inf encoded as -1
	Count int64   `json:"count"`
}

// HistogramData is the serializable form of a Histogram. Buckets lists
// every non-empty finite bucket in ascending order, always closed by the
// explicit overflow (+Inf) bucket — even when empty — so the bucket
// counts sum to Count by construction and a cumulative rendering (the
// Prometheus exposition) never has to infer an implicit remainder.
type HistogramData struct {
	Count   int64         `json:"count"`
	SumSec  float64       `json:"sum_sec"`
	MeanSec float64       `json:"mean_sec"`
	P50Sec  float64       `json:"p50_sec"`
	P95Sec  float64       `json:"p95_sec"`
	P99Sec  float64       `json:"p99_sec"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Report is a consistent snapshot of a registry: the trace (finished root
// spans) plus every metric, serializable to indented JSON (WriteJSON) and
// a human-readable text block (String). cmd/lre -report-out writes one
// per run.
type Report struct {
	Meta       map[string]string        `json:"meta,omitempty"`
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramData `json:"histograms,omitempty"`
	// Windows holds the rolling 1m/5m views of every histogram and
	// counter that keeps a window (window.go), under the same name.
	Windows      map[string]WindowsData `json:"windows,omitempty"`
	Spans        []*SpanData            `json:"spans,omitempty"`
	DroppedSpans int64                  `json:"dropped_spans,omitempty"`
}

// Snapshot captures the default registry.
func Snapshot() *Report { return defaultRegistry.Snapshot() }

// Snapshot captures the registry's current trace and metrics. Only ended
// root spans appear; a root still running is excluded (it files itself on
// End).
func (r *Registry) Snapshot() *Report {
	rep := &Report{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramData),
	}
	r.mu.RLock()
	for name, c := range r.counters {
		rep.Counters[name] = c.Value()
		if w := c.win.Load(); w != nil {
			rep.addWindow(name, windows(w, countWindow))
		}
	}
	for name, g := range r.gauges {
		rep.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		rep.Histograms[name] = histData(h)
		if w := h.win.Load(); w != nil {
			rep.addWindow(name, windows(w, histWindow))
		}
	}
	r.mu.RUnlock()
	r.spanMu.Lock()
	roots := append([]*Span(nil), r.roots...)
	rep.DroppedSpans = r.dropped
	r.spanMu.Unlock()
	for _, s := range roots {
		rep.Spans = append(rep.Spans, spanData(s))
	}
	return rep
}

// addWindow files one metric's windows, making the map on first use so a
// registry keeping no window reports none.
func (rep *Report) addWindow(name string, wd WindowsData) {
	if rep.Windows == nil {
		rep.Windows = make(map[string]WindowsData)
	}
	rep.Windows[name] = wd
}

func histData(h *Histogram) HistogramData {
	d := HistogramData{
		Count:   h.Count(),
		SumSec:  h.Sum(),
		MeanSec: h.Mean(),
		P50Sec:  h.Quantile(0.50),
		P95Sec:  h.Quantile(0.95),
		P99Sec:  h.Quantile(0.99),
	}
	if d.Count == 0 {
		return d
	}
	for i := 0; i < numBuckets; i++ {
		if n := h.counts[i].Load(); n > 0 {
			d.Buckets = append(d.Buckets, BucketCount{LE: BucketBound(i), Count: n})
		}
	}
	// The overflow bucket is always explicit (even at zero) so the
	// bucket counts sum to Count and cumulative renderings close at +Inf.
	d.Buckets = append(d.Buckets, BucketCount{LE: -1, Count: h.counts[numBuckets].Load()})
	return d
}

func spanData(s *Span) *SpanData {
	s.mu.Lock()
	d := &SpanData{
		Name:        s.name,
		Start:       s.start,
		DurationSec: s.dur.Seconds(),
	}
	if !s.ended {
		d.DurationSec = time.Since(s.start).Seconds()
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]float64, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	if len(s.labels) > 0 {
		d.Labels = make(map[string]string, len(s.labels))
		for k, v := range s.labels {
			d.Labels[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, spanData(c))
	}
	return d
}

// Find returns the first span named name across the report's roots
// (depth-first), or nil.
func (rep *Report) Find(name string) *SpanData {
	for _, s := range rep.Spans {
		if f := s.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// MetricsOnly returns a copy containing only counters, gauges,
// histograms, and windows (for the /metricsz scrape path, which must not
// serialize span trees on every poll).
func (rep *Report) MetricsOnly() *Report {
	return &Report{
		Meta:       rep.Meta,
		Counters:   rep.Counters,
		Gauges:     rep.Gauges,
		Histograms: rep.Histograms,
		Windows:    rep.Windows,
	}
}

// WriteJSON writes the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// String renders a human-readable report: the span forest with durations
// and attributes, then metrics in sorted order.
func (rep *Report) String() string {
	var b strings.Builder
	if len(rep.Spans) > 0 {
		b.WriteString("spans:\n")
		for _, s := range rep.Spans {
			writeSpanText(&b, s, 1)
		}
		if rep.DroppedSpans > 0 {
			fmt.Fprintf(&b, "  (+%d root spans dropped)\n", rep.DroppedSpans)
		}
	}
	writeSortedSection(&b, "counters", rep.Counters, func(v int64) string {
		return fmt.Sprintf("%d", v)
	})
	writeSortedSection(&b, "gauges", rep.Gauges, func(v float64) string {
		return fmt.Sprintf("%g", v)
	})
	writeSortedSection(&b, "histograms", rep.Histograms, func(h HistogramData) string {
		return fmt.Sprintf("count=%d sum=%.4fs mean=%.3gs p50≤%.3gs p99≤%.3gs",
			h.Count, h.SumSec, h.MeanSec, h.P50Sec, h.P99Sec)
	})
	return b.String()
}

func writeSortedSection[V any](b *strings.Builder, title string, m map[string]V, format func(V) string) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "%s:\n", title)
	for _, k := range keys {
		fmt.Fprintf(b, "  %-40s %s\n", k, format(m[k]))
	}
}

func writeSpanText(b *strings.Builder, s *SpanData, depth int) {
	fmt.Fprintf(b, "%s%-*s %10.4fs", strings.Repeat("  ", depth), 34-2*depth, s.Name, s.DurationSec)
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%g", k, s.Attrs[k])
	}
	lkeys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		lkeys = append(lkeys, k)
	}
	sort.Strings(lkeys)
	for _, k := range lkeys {
		fmt.Fprintf(b, " %s=%s", k, s.Labels[k])
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		writeSpanText(b, c, depth+1)
	}
}
