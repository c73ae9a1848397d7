package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// The referee: TraceBuffer's earlier form, which kept every finished
// trace as its *TraceEntry tree and encoded the whole report when
// /tracez was read. It is kept verbatim (renamed) so the flat-record
// buffer can be held to the same /tracez bytes and its retained heap
// compared with this one's.

// refTraceBuffer is the bounded in-memory store behind /tracez. All methods
// are safe for concurrent use; Add is O(slowestCap) worst case and
// allocation-free on the common path.
type refTraceBuffer struct {
	mu        sync.Mutex
	recent    []*TraceEntry // ring, recentNext is the next write slot
	slowest   []*TraceEntry // kept sorted ascending by duration
	exemplars []*TraceEntry // ring of degraded/errored traces
	recentCap int
	slowCap   int
	exCap     int

	recentNext int
	exNext     int
	added      int64
	exEvicted  int64
}

// newRefTraceBuffer sizes a buffer; non-positive caps select the defaults
// (128 recent, 16 slowest, 64 exemplars).
func newRefTraceBuffer(recentCap, slowestCap, exemplarCap int) *refTraceBuffer {
	if recentCap <= 0 {
		recentCap = 128
	}
	if slowestCap <= 0 {
		slowestCap = 16
	}
	if exemplarCap <= 0 {
		exemplarCap = 64
	}
	return &refTraceBuffer{recentCap: recentCap, slowCap: slowestCap, exCap: exemplarCap}
}

// Add files one finished trace.
func (tb *refTraceBuffer) Add(e *TraceEntry) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.added++
	// Recent ring.
	if len(tb.recent) < tb.recentCap {
		tb.recent = append(tb.recent, e)
	} else {
		tb.recent[tb.recentNext] = e
	}
	tb.recentNext = (tb.recentNext + 1) % tb.recentCap
	// Slowest-N, sorted ascending so the eviction candidate is slot 0.
	if len(tb.slowest) < tb.slowCap {
		tb.slowest = append(tb.slowest, e)
		sort.Slice(tb.slowest, func(i, j int) bool {
			return tb.slowest[i].DurationSec < tb.slowest[j].DurationSec
		})
	} else if e.DurationSec > tb.slowest[0].DurationSec {
		i := 0
		for i+1 < len(tb.slowest) && tb.slowest[i+1].DurationSec < e.DurationSec {
			tb.slowest[i] = tb.slowest[i+1]
			i++
		}
		tb.slowest[i] = e
	}
	// Degraded/errored exemplars are always admitted.
	if e.Degraded || e.Error != "" || e.Status >= 500 {
		if len(tb.exemplars) < tb.exCap {
			tb.exemplars = append(tb.exemplars, e)
		} else {
			tb.exemplars[tb.exNext] = e
			tb.exEvicted++
		}
		tb.exNext = (tb.exNext + 1) % tb.exCap
	}
}

// Snapshot returns a consistent copy for serialization.
func (tb *refTraceBuffer) Snapshot() *TracezReport {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	rep := &TracezReport{
		Recent:           refNewestFirst(tb.recent, tb.recentNext),
		Exemplars:        refNewestFirst(tb.exemplars, tb.exNext),
		Added:            tb.added,
		ExemplarsEvicted: tb.exEvicted,
	}
	rep.Slowest = make([]*TraceEntry, len(tb.slowest))
	for i, e := range tb.slowest {
		rep.Slowest[len(tb.slowest)-1-i] = e
	}
	return rep
}

// Reset empties the buffer (tests, metric resets).
func (tb *refTraceBuffer) Reset() {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.recent, tb.slowest, tb.exemplars = nil, nil, nil
	tb.recentNext, tb.exNext, tb.added, tb.exEvicted = 0, 0, 0, 0
}

// refNewestFirst unrolls a ring whose next write slot is next into
// newest-first order.
func refNewestFirst(ring []*TraceEntry, next int) []*TraceEntry {
	out := make([]*TraceEntry, 0, len(ring))
	for i := 0; i < len(ring); i++ {
		out = append(out, ring[(next-1-i+len(ring))%len(ring)])
	}
	return out
}

// refBody is the /tracez body the referee's server wrote.
func refBody(t *testing.T, tb *refTraceBuffer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(tb.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func body(t *testing.T, tb *TraceBuffer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Trace shapes a scoring daemon files, one per kind.
const (
	kindPlain = iota
	kindBatch
	kindCallerParent
	kindDegraded
	kind5xx
	numKinds
)

// frontEnds is the small export's battery: one score.fe span each.
var frontEnds = []string{"HU", "RU", "CZ", "EN", "GE", "MA"}

// scoringSpans hangs one utterance's stage spans off sp, the way the
// standalone request path does: resolve, one score.fe per front-end and
// fusion. failFE names a front-end whose scoring failed, or is empty.
func scoringSpans(sp *Span, failFE string) {
	sp.StartChild("resolve").End()
	for _, fe := range frontEnds {
		c := sp.StartChild("score.fe")
		c.SetLabel("fe", fe)
		if fe == failFE {
			c.SetLabel("error", "injected fault at serve.score.fe."+fe)
		}
		c.End()
	}
	sp.StartChild("fuse").End()
}

// sampleTrace builds the i-th trace of a representative sequence: every
// kind in turn, durations spread so the slowest set keeps changing.
func sampleTrace(i int) *TraceEntry {
	kind := i % numKinds
	endpoint := "score"
	if kind == kindBatch {
		endpoint = "batch"
	}
	id := fmt.Sprintf("%032x", i+1)
	root := NewSpan("serve." + endpoint)
	root.SetLabel("trace_id", id)
	root.StartChild("read").End()
	root.StartChild("decode").End()
	e := &TraceEntry{
		TraceID:      id,
		SpanID:       fmt.Sprintf("%016x", 7*i+3),
		Endpoint:     endpoint,
		Start:        time.Date(2026, 8, 1, 12, 0, 0, i*1000, time.UTC),
		DurationSec:  float64((i*7919)%997+1) * 1e-5,
		Status:       200,
		ModelVersion: 1 + int64(i/100),
	}
	switch kind {
	case kindPlain:
		scoringSpans(root, "")
	case kindBatch:
		for u := 0; u < 3; u++ {
			utt := root.StartChild("utt")
			utt.SetLabel("id", fmt.Sprintf("utt-%d-%d", i, u))
			scoringSpans(utt, "")
			utt.End()
		}
	case kindCallerParent:
		e.ParentSpanID = fmt.Sprintf("%016x", 11*i+5)
		scoringSpans(root, "")
	case kindDegraded:
		scoringSpans(root, "CZ")
		e.Degraded = true
		e.Surviving = []string{"EN", "GE", "HU", "MA", "RU"}
	case kind5xx:
		e.Status = 503
		e.Error = "all shards failed: shard <w1> & w2: überlastet — ☃"
		root.SetLabel("error", e.Error)
	}
	root.End()
	e.Root = root.Data()
	return e
}

// TestTracezMatchesReferee drives one trace sequence through the flat
// buffer and the referee: every kind of trace, enough of them that each
// ring wraps, and a Reset midway. The /tracez bodies must be the same
// bytes at every step.
func TestTracezMatchesReferee(t *testing.T) {
	tb, ref := NewTraceBuffer(0, 0, 0), newRefTraceBuffer(0, 0, 0)
	same := func(step string) {
		t.Helper()
		if got, want := body(t, tb), refBody(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("%s: /tracez body differs from the referee's\ngot  %.400s\nwant %.400s", step, got, want)
		}
	}
	same("empty")
	for i := 0; i < 700; i++ {
		if i == 400 {
			tb.Reset()
			ref.Reset()
			same("after reset")
		}
		e := sampleTrace(i)
		tb.Add(e)
		ref.Add(e)
		if i%37 == 0 {
			same(fmt.Sprintf("after trace %d", i))
		}
	}
	same("end")
	rep := snapshot(t, tb)
	if len(rep.Recent) != 128 || len(rep.Slowest) != 16 || len(rep.Exemplars) != 64 || rep.ExemplarsEvicted == 0 {
		t.Fatalf("the sequence did not fill every ring: %d recent, %d slowest, %d exemplars, %d evicted",
			len(rep.Recent), len(rep.Slowest), len(rep.Exemplars), rep.ExemplarsEvicted)
	}
}

// retainedHeap reports the live heap a buffer holds after fill files
// 10,000 representative traces into it.
func retainedHeap(fill func(*TraceEntry)) int64 {
	before := liveHeap()
	for i := 0; i < 10_000; i++ {
		fill(sampleTrace(i))
	}
	return liveHeap() - before
}

// liveHeap is the heap left after a full collection. The second GC frees
// what sync.Pool caches (encoding/json's among them) held through the
// first.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// traceHeapBound is the retained heap a default-sized buffer may hold
// after 10,000 representative traces.
const traceHeapBound = 450 << 10

// TestTraceBufferRetainedHeap: the flat records of a full buffer stay
// under traceHeapBound, and the referee's trees do not, so the bound
// tells the two forms apart.
func TestTraceBufferRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	tb := NewTraceBuffer(0, 0, 0)
	flat := retainedHeap(func(e *TraceEntry) { tb.Add(e) })
	runtime.KeepAlive(tb)
	ref := newRefTraceBuffer(0, 0, 0)
	trees := retainedHeap(ref.Add)
	runtime.KeepAlive(ref)
	t.Logf("retained heap after 10,000 traces: flat records %d KiB, referee trees %d KiB", flat>>10, trees>>10)
	if flat <= 0 || trees <= 0 {
		t.Fatal("a full buffer retained no heap: the measurement was disturbed")
	}
	if flat >= traceHeapBound {
		t.Errorf("flat records retain %d KiB, bound %d KiB", flat>>10, traceHeapBound>>10)
	}
	if trees < traceHeapBound {
		t.Errorf("the referee's trees retain %d KiB, under the %d KiB bound: the bound no longer separates the forms", trees>>10, traceHeapBound>>10)
	}
}
