package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if g := r.Gauge("g").Value(); g != 999 {
		t.Fatalf("gauge = %g, want 999", g)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations, 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(1e-5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if want := 90*1e-5 + 10*0.5; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
	if p50 := h.Quantile(0.5); p50 > 1e-3 {
		t.Fatalf("p50 = %g, expected a fast bucket", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 0.25 || p99 > 2 {
		t.Fatalf("p99 = %g, expected a slow bucket", p99)
	}
	// Overflow bucket.
	h.Observe(100)
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("max quantile = %g, want +Inf", q)
	}
}

func TestSpanTreeAndTrace(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("pipeline")
	root.SetLabel("scale", "tiny")
	c1 := root.StartChild("decode")
	c1.SetAttr("utterances", 3)
	time.Sleep(time.Millisecond)
	c1.End()
	c2 := root.StartChild("score")
	c2.End()
	root.End()

	rep := r.Snapshot()
	if len(rep.Spans) != 1 {
		t.Fatalf("got %d root spans, want 1", len(rep.Spans))
	}
	top := rep.Spans[0]
	if top.Name != "pipeline" || len(top.Children) != 2 {
		t.Fatalf("bad tree: %+v", top)
	}
	if top.DurationSec <= 0 || top.DurationSec < top.Children[0].DurationSec {
		t.Fatalf("parent duration %g vs child %g", top.DurationSec, top.Children[0].DurationSec)
	}
	if d := rep.Find("decode"); d == nil || d.Attrs["utterances"] != 3 {
		t.Fatalf("Find(decode) = %+v", d)
	}
	if rep.Find("nope") != nil {
		t.Fatal("Find invented a span")
	}
}

func TestSpanEndIdempotentAndConcurrentChildren(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("root")
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := root.StartChild("child")
			c.SetAttr("w", float64(w))
			c.End()
		}(w)
	}
	wg.Wait()
	root.End()
	root.End() // must not double-record
	rep := r.Snapshot()
	if len(rep.Spans) != 1 {
		t.Fatalf("root recorded %d times", len(rep.Spans))
	}
	if n := len(rep.Spans[0].Children); n != 16 {
		t.Fatalf("%d children, want 16", n)
	}
}

func TestChildOf(t *testing.T) {
	r := NewRegistry()
	parent := r.StartSpan("p")
	if c := ChildOf(parent, "c"); c == nil {
		t.Fatal("nil child")
	}
	parent.End()
	if len(r.Snapshot().Spans[0].Children) != 1 {
		t.Fatal("ChildOf did not attach to parent")
	}
	// nil parent → default-registry root
	Reset()
	s := ChildOf(nil, "standalone")
	s.End()
	if Snapshot().Find("standalone") == nil {
		t.Fatal("ChildOf(nil) did not create a root span")
	}
	Reset()
}

// TestNilSpanIsNoOp: a nil *Span is an untraced region. Every method is
// a no-op on it, StartChild hands back another nil span, and nothing
// reaches a registry; ChildOf(nil, …) still opens a registry root,
// because there it is the caller's nil parent, not an untraced one.
func TestNilSpanIsNoOp(t *testing.T) {
	Reset()
	defer Reset()
	var s *Span
	if c := s.StartChild("c"); c != nil {
		t.Fatalf("StartChild on a nil span = %v, want nil", c)
	}
	s.SetAttr("k", 1)
	s.SetLabel("k", "v")
	if d := s.End(); d != 0 {
		t.Fatalf("End on a nil span = %v, want 0", d)
	}
	if n := s.Name(); n != "" {
		t.Fatalf("Name on a nil span = %q, want empty", n)
	}
	if d := s.Data(); d != nil {
		t.Fatalf("Data on a nil span = %+v, want nil", d)
	}
	if n := len(Snapshot().Spans); n != 0 {
		t.Fatalf("nil-span calls filed %d roots", n)
	}
	root := ChildOf(s, "nil-parent")
	if root == nil {
		t.Fatal("ChildOf(nil, …) returned nil")
	}
	root.End()
	if Snapshot().Find("nil-parent") == nil {
		t.Fatal("ChildOf(nil, …) did not file a registry root")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("utts").Add(7)
	r.Gauge("dim").Set(3540)
	r.Histogram("lat").Observe(0.01)
	s := r.StartSpan("run")
	s.End()

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Counters["utts"] != 7 || back.Gauges["dim"] != 3540 {
		t.Fatalf("metrics lost: %+v", back)
	}
	if back.Histograms["lat"].Count != 1 {
		t.Fatalf("histogram lost: %+v", back.Histograms)
	}
	if len(back.Spans) != 1 || back.Spans[0].Name != "run" {
		t.Fatalf("spans lost: %+v", back.Spans)
	}
}

func TestReportTextAndSubsets(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(2)
	sp := r.StartSpan("stage")
	sp.SetAttr("n", 5)
	sp.End()
	rep := r.Snapshot()
	text := rep.String()
	for _, want := range []string{"spans:", "stage", "counters:", "a.count"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text report missing %q:\n%s", want, text)
		}
	}
	if mo := rep.MetricsOnly(); len(mo.Spans) != 0 || mo.Counters["a.count"] != 2 {
		t.Fatalf("MetricsOnly wrong: %+v", mo)
	}
}

func TestResetKeepsHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("keep")
	c.Add(5)
	h := r.Histogram("lat")
	h.Observe(1)
	r.StartSpan("s").End()
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("Reset did not zero values")
	}
	if len(r.Snapshot().Spans) != 0 {
		t.Fatal("Reset did not clear trace")
	}
	c.Add(1) // cached handle still wired to the registry
	if r.Snapshot().Counters["keep"] != 1 {
		t.Fatal("handle detached after Reset")
	}
}

func TestRootSpanCap(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxRoots+10; i++ {
		r.StartSpan("s").End()
	}
	rep := r.Snapshot()
	if len(rep.Spans) != maxRoots {
		t.Fatalf("retained %d roots, want %d", len(rep.Spans), maxRoots)
	}
	if rep.DroppedSpans != 10 {
		t.Fatalf("dropped = %d, want 10", rep.DroppedSpans)
	}
}

// Benchmarks document the always-on recording cost (the ≤2% pipeline
// overhead budget rests on these being tens of nanoseconds).

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterLookupInc(b *testing.B) {
	r := NewRegistry()
	r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("c").Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	r := NewRegistry()
	parent := r.StartSpan("parent")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parent.StartChild("c").End()
	}
}
