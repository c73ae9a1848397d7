package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Request-scoped tracing: W3C trace-context identifiers plus a bounded
// in-memory buffer of finished request traces. The serving tier accepts
// (or mints) a `traceparent` per request, threads a detached span tree
// through decode → resolution → per-front-end scoring → fusion, and
// files the finished tree here; /tracez serves the buffer. The same
// identifiers travel in responses and access-log lines, so one id
// correlates the client's view, the server's span tree, and the logs —
// the propagation contract a distributed scatter–gather tier inherits
// as-is (a shard request forwards the traceparent it was called with).
//
// Retention policy (all bounds are fixed at construction):
//   - recent: a ring of the last N finished traces, any outcome;
//   - slowest: the N slowest traces seen since the last reset — latency
//     exemplars that survive long after a spike scrolled out of recent;
//   - exemplars: degraded or errored traces, always admitted — a ring so
//     the newest failures survive, with an overwrite counter so a reader
//     can tell the buffer wrapped.

// NewTraceID returns a fresh 32-hex-digit (128-bit) W3C trace id.
func NewTraceID() string { return randHex(16) }

// NewSpanID returns a fresh 16-hex-digit (64-bit) W3C span id.
func NewSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; a zero id would
		// be invalid per spec, so fail loudly rather than emit one.
		panic("obs: crypto/rand: " + err.Error())
	}
	// Guard the all-zero id the spec forbids.
	zero := true
	for _, x := range b {
		if x != 0 {
			zero = false
			break
		}
	}
	if zero {
		b[n-1] = 1
	}
	return hex.EncodeToString(b)
}

// ParseTraceparent parses a W3C `traceparent` header
// (version-traceid-parentid-flags). It accepts any non-ff version whose
// first four fields have the standard widths, per the spec's
// forward-compatibility rule, and rejects all-zero ids. ok is false for
// anything malformed — the caller then mints a fresh trace.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	if len(h) > 55 && h[55] != '-' {
		return "", "", false
	}
	ver, tid, pid, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if !isHex(ver) || !isHex(tid) || !isHex(pid) || !isHex(flags) {
		return "", "", false
	}
	if ver == "ff" || allZero(tid) || allZero(pid) {
		return "", "", false
	}
	return lower(tid), lower(pid), true
}

// Traceparent formats a version-00 traceparent with the sampled flag set
// (every request the daemon traces is recorded).
func Traceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'F' {
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}

// TraceEntry is one finished request trace as buffered and served by
// /tracez.
type TraceEntry struct {
	TraceID string `json:"trace_id"`
	// SpanID is the server's own root span id (returned to the client in
	// the response traceparent).
	SpanID string `json:"span_id"`
	// ParentSpanID is the caller's span id when the request carried a
	// traceparent; empty for traces this server minted.
	ParentSpanID string    `json:"parent_span_id,omitempty"`
	Endpoint     string    `json:"endpoint"`
	Start        time.Time `json:"start"`
	DurationSec  float64   `json:"duration_sec"`
	Status       int       `json:"status"`
	ModelVersion int64     `json:"model_version,omitempty"`
	Degraded     bool      `json:"degraded,omitempty"`
	// Surviving is the front-end set that still contributed to a degraded
	// result.
	Surviving []string `json:"surviving,omitempty"`
	Error     string   `json:"error,omitempty"`
	// Root is the request's span tree (body read and decode, resolution,
	// per-front-end scoring, fusion).
	Root *SpanData `json:"root,omitempty"`
}

// TracezReport is the JSON body of /tracez (TraceBuffer.WriteJSON).
type TracezReport struct {
	// Recent lists the most recent finished traces, newest first.
	Recent []*TraceEntry `json:"recent"`
	// Slowest lists the slowest traces since reset, slowest first.
	Slowest []*TraceEntry `json:"slowest"`
	// Exemplars lists retained degraded/errored traces, newest first.
	Exemplars []*TraceEntry `json:"exemplars"`
	// Added counts every trace ever offered to the buffer.
	Added int64 `json:"added"`
	// ExemplarsEvicted counts degraded/errored traces overwritten after
	// the exemplar ring wrapped.
	ExemplarsEvicted int64 `json:"exemplars_evicted,omitempty"`
}

// TraceBuffer is the bounded in-memory store behind /tracez. It keeps
// each finished trace as one flat record, the trace's JSON encoding,
// plus the duration the slowest set is ordered by: one pointer-free byte
// slice per trace, shared by every ring that holds it, which the
// collector does not scan. All methods are safe for concurrent use. Add
// encodes the trace before it takes the lock, and then does
// O(slowestCap) work at most.
type TraceBuffer struct {
	mu        sync.Mutex
	recent    []trace // ring, recentNext is the next write slot
	slowest   []trace // kept sorted ascending by duration
	exemplars []trace // ring of degraded/errored traces
	recentCap int
	slowCap   int
	exCap     int

	recentNext int
	exNext     int
	added      int64
	exEvicted  int64
}

// trace is one retained trace: its TraceEntry's JSON encoding and its
// duration.
type trace struct {
	json []byte
	dur  float64
}

// NewTraceBuffer sizes a buffer; non-positive caps select the defaults
// (128 recent, 16 slowest, 64 exemplars).
func NewTraceBuffer(recentCap, slowestCap, exemplarCap int) *TraceBuffer {
	if recentCap <= 0 {
		recentCap = 128
	}
	if slowestCap <= 0 {
		slowestCap = 16
	}
	if exemplarCap <= 0 {
		exemplarCap = 64
	}
	return &TraceBuffer{recentCap: recentCap, slowCap: slowestCap, exCap: exemplarCap}
}

// Add files one finished trace and returns the JSON it kept followed by
// '\n', in one slice: the request's access-log line. The buffer keeps
// e's encoding, so a later change to e does not reach /tracez. A trace
// that cannot be encoded (a NaN attribute) is counted, not kept, and
// Add returns nil. The caller must not modify the returned bytes: the
// rings share them.
func (tb *TraceBuffer) Add(e *TraceEntry) []byte {
	line, err := json.Marshal(e)
	if err == nil {
		line = append(line, '\n')
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.added++
	if err != nil {
		return nil
	}
	// The record's capacity ends before the newline, so nothing appended
	// to it can overwrite the line's last byte.
	n := len(line) - 1
	t := trace{json: line[:n:n], dur: e.DurationSec}
	// Recent ring.
	if len(tb.recent) < tb.recentCap {
		tb.recent = append(tb.recent, t)
	} else {
		tb.recent[tb.recentNext] = t
	}
	tb.recentNext = (tb.recentNext + 1) % tb.recentCap
	// Slowest-N, sorted ascending so the eviction candidate is slot 0.
	if len(tb.slowest) < tb.slowCap {
		tb.slowest = append(tb.slowest, t)
		sort.Slice(tb.slowest, func(i, j int) bool {
			return tb.slowest[i].dur < tb.slowest[j].dur
		})
	} else if t.dur > tb.slowest[0].dur {
		i := 0
		for i+1 < len(tb.slowest) && tb.slowest[i+1].dur < t.dur {
			tb.slowest[i] = tb.slowest[i+1]
			i++
		}
		tb.slowest[i] = t
	}
	// Degraded/errored exemplars are always admitted.
	if e.Degraded || e.Error != "" || e.Status >= 500 {
		if len(tb.exemplars) < tb.exCap {
			tb.exemplars = append(tb.exemplars, t)
		} else {
			tb.exemplars[tb.exNext] = t
			tb.exEvicted++
		}
		tb.exNext = (tb.exNext + 1) % tb.exCap
	}
	return line
}

// WriteJSON writes the /tracez body: a TracezReport of the retained
// traces, byte for byte what json.Encoder writes for one, trailing
// newline included. The lock is held only to copy the record headers.
func (tb *TraceBuffer) WriteJSON(w io.Writer) error {
	tb.mu.Lock()
	recent := newestFirst(tb.recent, tb.recentNext)
	exemplars := newestFirst(tb.exemplars, tb.exNext)
	slowest := make([]trace, len(tb.slowest))
	for i, t := range tb.slowest {
		slowest[len(tb.slowest)-1-i] = t
	}
	added, evicted := tb.added, tb.exEvicted
	tb.mu.Unlock()

	b := appendTraces([]byte(`{"recent":`), recent)
	b = appendTraces(append(b, `,"slowest":`...), slowest)
	b = appendTraces(append(b, `,"exemplars":`...), exemplars)
	b = strconv.AppendInt(append(b, `,"added":`...), added, 10)
	if evicted != 0 {
		b = strconv.AppendInt(append(b, `,"exemplars_evicted":`...), evicted, 10)
	}
	_, err := w.Write(append(b, "}\n"...))
	return err
}

// appendTraces appends list as a JSON array of its records.
func appendTraces(b []byte, list []trace) []byte {
	b = append(b, '[')
	for i, t := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, t.json...)
	}
	return append(b, ']')
}

// Reset empties the buffer (tests, metric resets).
func (tb *TraceBuffer) Reset() {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.recent, tb.slowest, tb.exemplars = nil, nil, nil
	tb.recentNext, tb.exNext, tb.added, tb.exEvicted = 0, 0, 0, 0
}

// newestFirst unrolls a ring whose next write slot is next into
// newest-first order.
func newestFirst(ring []trace, next int) []trace {
	out := make([]trace, 0, len(ring))
	for i := 0; i < len(ring); i++ {
		out = append(out, ring[(next-1-i+len(ring))%len(ring)])
	}
	return out
}
