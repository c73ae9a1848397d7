package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	pid := "00f067aa0ba902b7"
	cases := []struct {
		in       string
		ok       bool
		wantTID  string
		wantPID  string
		describe string
	}{
		{"00-" + tid + "-" + pid + "-01", true, tid, pid, "canonical"},
		{"00-" + strings.ToUpper(tid) + "-" + pid + "-01", true, tid, pid, "uppercase hex is normalized"},
		{"cc-" + tid + "-" + pid + "-01", true, tid, pid, "future version accepted"},
		{"cc-" + tid + "-" + pid + "-01-extra", true, tid, pid, "future version with suffix"},
		{"ff-" + tid + "-" + pid + "-01", false, "", "", "version ff forbidden"},
		{"00-" + strings.Repeat("0", 32) + "-" + pid + "-01", false, "", "", "zero trace id"},
		{"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", false, "", "", "zero parent id"},
		{"00-" + tid + "-" + pid + "-0g", false, "", "", "non-hex flags"},
		{"00-" + tid[:31] + "-" + pid + "-01", false, "", "", "short trace id"},
		{"", false, "", "", "empty"},
		{"garbage", false, "", "", "garbage"},
	}
	for _, c := range cases {
		gotTID, gotPID, ok := ParseTraceparent(c.in)
		if ok != c.ok || gotTID != c.wantTID || gotPID != c.wantPID {
			t.Errorf("%s: ParseTraceparent(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.describe, c.in, gotTID, gotPID, ok, c.wantTID, c.wantPID, c.ok)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	if len(tid) != 32 || len(sid) != 16 {
		t.Fatalf("id widths: trace %d span %d", len(tid), len(sid))
	}
	h := Traceparent(tid, sid)
	gotTID, gotPID, ok := ParseTraceparent(h)
	if !ok || gotTID != tid || gotPID != sid {
		t.Fatalf("round trip of %q failed: (%q, %q, %v)", h, gotTID, gotPID, ok)
	}
	if NewTraceID() == tid {
		t.Fatal("two NewTraceID calls returned the same id")
	}
}

func entry(id string, durSec float64, degraded bool, errMsg string) *TraceEntry {
	return &TraceEntry{
		TraceID:     id,
		SpanID:      "span" + id,
		Endpoint:    "score",
		Start:       time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
		DurationSec: durSec,
		Status:      200,
		Degraded:    degraded,
		Error:       errMsg,
	}
}

// snapshot decodes the buffer's /tracez body.
func snapshot(t *testing.T, tb *TraceBuffer) *TracezReport {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep TracezReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("bad /tracez body: %v: %s", err, buf.Bytes())
	}
	return &rep
}

func TestTraceBufferRecentRing(t *testing.T) {
	tb := NewTraceBuffer(4, 2, 4)
	var lines [][]byte
	for i := 0; i < 10; i++ {
		lines = append(lines, tb.Add(entry(fmt.Sprintf("t%02d", i), 0.001, false, "")))
	}
	// A trace that cannot be encoded is counted, not kept, and gives no
	// line.
	nan := entry("nan", 0.001, false, "")
	root := NewSpan("serve.score")
	root.SetAttr("batch.size", math.NaN())
	root.End()
	nan.Root = root.Data()
	if line := tb.Add(nan); line != nil {
		t.Fatalf("unencodable trace gave line %q", line)
	}
	rep := snapshot(t, tb)
	if rep.Added != 11 {
		t.Fatalf("added = %d, want 11", rep.Added)
	}
	// Each line Add returned is its /tracez record plus one newline.
	var raw struct{ Recent []json.RawMessage }
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for i, rec := range raw.Recent {
		if want := append([]byte(rec), '\n'); !bytes.Equal(lines[9-i], want) {
			t.Fatalf("line %d is %q, want its /tracez record %q", 9-i, lines[9-i], want)
		}
	}
	if len(rep.Recent) != 4 {
		t.Fatalf("recent len = %d, want 4", len(rep.Recent))
	}
	// Newest first: t09, t08, t07, t06.
	for i, want := range []string{"t09", "t08", "t07", "t06"} {
		if rep.Recent[i].TraceID != want {
			t.Fatalf("recent[%d] = %s, want %s", i, rep.Recent[i].TraceID, want)
		}
	}
}

func TestTraceBufferSlowestRetention(t *testing.T) {
	tb := NewTraceBuffer(2, 3, 2)
	durs := []float64{0.010, 0.002, 0.500, 0.004, 0.100, 0.001, 0.250}
	for i, d := range durs {
		tb.Add(entry(fmt.Sprintf("t%d", i), d, false, ""))
	}
	rep := snapshot(t, tb)
	if len(rep.Slowest) != 3 {
		t.Fatalf("slowest len = %d, want 3", len(rep.Slowest))
	}
	// Slowest first: 0.500 (t2), 0.250 (t6), 0.100 (t4) — the slow
	// outliers survive even though the recent ring (cap 2) scrolled past
	// them long ago.
	want := []string{"t2", "t6", "t4"}
	for i := range want {
		if rep.Slowest[i].TraceID != want[i] {
			t.Fatalf("slowest[%d] = %s (%.3fs), want %s", i, rep.Slowest[i].TraceID, rep.Slowest[i].DurationSec, want[i])
		}
	}
}

func TestTraceBufferExemplarRetention(t *testing.T) {
	tb := NewTraceBuffer(2, 2, 3)
	tb.Add(entry("ok1", 0.001, false, ""))
	tb.Add(entry("deg1", 0.001, true, ""))
	tb.Add(entry("err1", 0.001, false, "scoring failed"))
	tb.Add(entry("ok2", 0.001, false, ""))
	tb.Add(entry("deg2", 0.001, true, ""))

	rep := snapshot(t, tb)
	if len(rep.Exemplars) != 3 {
		t.Fatalf("exemplars len = %d, want 3", len(rep.Exemplars))
	}
	for i, want := range []string{"deg2", "err1", "deg1"} {
		if rep.Exemplars[i].TraceID != want {
			t.Fatalf("exemplars[%d] = %s, want %s", i, rep.Exemplars[i].TraceID, want)
		}
	}
	// A fourth failure wraps the ring: the oldest exemplar is evicted and
	// the eviction is counted, never silent.
	tb.Add(entry("deg3", 0.001, true, ""))
	rep = snapshot(t, tb)
	if rep.ExemplarsEvicted != 1 {
		t.Fatalf("evicted = %d, want 1", rep.ExemplarsEvicted)
	}
	if rep.Exemplars[0].TraceID != "deg3" {
		t.Fatalf("exemplars[0] = %s, want deg3", rep.Exemplars[0].TraceID)
	}
	// 5xx responses are exemplars too, even when not degraded.
	e := entry("boom", 0.001, false, "")
	e.Status = 503
	tb.Add(e)
	if got := snapshot(t, tb).Exemplars[0].TraceID; got != "boom" {
		t.Fatalf("5xx exemplar missing: got %s", got)
	}
}

func TestTraceBufferReset(t *testing.T) {
	tb := NewTraceBuffer(2, 2, 2)
	tb.Add(entry("a", 1, true, ""))
	tb.Reset()
	rep := snapshot(t, tb)
	if rep.Added != 0 || len(rep.Recent) != 0 || len(rep.Slowest) != 0 || len(rep.Exemplars) != 0 {
		t.Fatalf("reset did not empty the buffer: %+v", rep)
	}
}

// TestTraceBufferConcurrent: requests finish on several goroutines, a
// late scorer still hangs spans off one of them while it is filed, and
// /tracez reads and resets race them all (run it under -race). Every body
// read must decode as one report within the caps.
func TestTraceBufferConcurrent(t *testing.T) {
	tb := NewTraceBuffer(8, 4, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e := sampleTrace(w*1000 + i)
				root := NewSpan("serve.score")
				late := make(chan struct{})
				go func() {
					defer close(late)
					root.StartChild("score.fe").End()
				}()
				root.End()
				e.Root = root.Data()
				tb.Add(e)
				<-late
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				if r == 1 && k%10 == 9 {
					tb.Reset()
					continue
				}
				var buf bytes.Buffer
				var rep TracezReport
				if err := tb.WriteJSON(&buf); err != nil {
					t.Error(err)
					return
				}
				if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
					t.Errorf("bad /tracez body: %v", err)
					return
				}
				if len(rep.Recent) > 8 || len(rep.Slowest) > 4 || len(rep.Exemplars) > 4 {
					t.Errorf("report over its caps: %d recent, %d slowest, %d exemplars", len(rep.Recent), len(rep.Slowest), len(rep.Exemplars))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
}
