package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/testbundle"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing access logs
// (the handler goroutine writes while the test reads).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func getTracez(t *testing.T, ts *httptest.Server) *obs.TracezReport {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tracez status %d", resp.StatusCode)
	}
	var rep obs.TracezReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

func findTrace(rep *obs.TracezReport, id string) *obs.TraceEntry {
	for _, e := range rep.Recent {
		if e.TraceID == id {
			return e
		}
	}
	return nil
}

// TestTraceparentRoundTrip drives one scored request with a caller-supplied
// traceparent and checks the full propagation contract: the accepted trace
// id comes back in the response header and body, lands in /tracez with the
// caller's span id as parent, and the buffered span tree carries every
// pipeline stage with internally consistent durations.
func TestTraceparentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 1)
	var logBuf syncBuffer
	s := newTestServer(t, dir, func(c *Config) {
		c.AccessLog = &logBuf
		c.AccessLogEvery = 1
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	data, _ := json.Marshal(scoreRequestFor(b, testbundle.Vector(7)))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/score", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+callerTrace+"-"+callerSpan+"-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// Response header: same trace id, fresh server span id, sampled flag.
	tp := resp.Header.Get("traceparent")
	gotTrace, gotSpan, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}
	if gotTrace != callerTrace {
		t.Fatalf("response trace id %s, want caller's %s", gotTrace, callerTrace)
	}
	if gotSpan == callerSpan {
		t.Fatal("server reused the caller's span id as its own")
	}
	if sr.TraceID != callerTrace {
		t.Fatalf("body trace_id %q, want %q", sr.TraceID, callerTrace)
	}

	// /tracez: the entry correlates by trace id and remembers the caller.
	e := findTrace(getTracez(t, ts), callerTrace)
	if e == nil {
		t.Fatal("trace missing from /tracez recent")
	}
	if e.ParentSpanID != callerSpan {
		t.Fatalf("parent span %q, want caller's %q", e.ParentSpanID, callerSpan)
	}
	if e.SpanID != gotSpan {
		t.Fatalf("buffered span id %s != response header span id %s", e.SpanID, gotSpan)
	}
	if e.Status != http.StatusOK || e.Endpoint != "score" {
		t.Fatalf("entry status=%d endpoint=%q", e.Status, e.Endpoint)
	}
	if e.ModelVersion != 1 {
		t.Fatalf("model version %d, want 1", e.ModelVersion)
	}
	if e.BatchID == 0 {
		t.Fatal("no dispatch batch recorded")
	}
	if e.Degraded {
		t.Fatal("healthy request marked degraded")
	}

	// Span tree: every stage present, each stage no longer than the root.
	if e.Root == nil {
		t.Fatal("no span tree buffered")
	}
	fes := 0
	for _, stage := range []string{"decode", "resolve", "queue.wait", "batch.form", "score.fe", "fuse"} {
		sp := e.Root.Find(stage)
		if sp == nil {
			t.Fatalf("stage %q missing from span tree", stage)
		}
		if sp.DurationSec < 0 || sp.DurationSec > e.DurationSec {
			t.Fatalf("stage %q duration %v outside root %v", stage, sp.DurationSec, e.DurationSec)
		}
	}
	var walk func(d *obs.SpanData)
	walk = func(d *obs.SpanData) {
		if d.Name == "score.fe" {
			fes++
			if fe := d.Labels["fe"]; fe != "FE0" && fe != "FE1" {
				t.Fatalf("score.fe span labeled %q", fe)
			}
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(e.Root)
	if fes != len(b.FrontEnds) {
		t.Fatalf("%d score.fe spans, want %d", fes, len(b.FrontEnds))
	}
	if got := e.Root.Find("batch.form"); got.DurationSec > e.Root.Find("queue.wait").DurationSec+e.DurationSec {
		t.Fatalf("implausible batch.form duration %v", got.DurationSec)
	}

	// Access log: the same trace id, with per-front-end timings.
	var rec accessRecord
	line := strings.TrimSpace(logBuf.String())
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line %q: %v", line, err)
	}
	if rec.TraceID != callerTrace {
		t.Fatalf("access log trace_id %q, want %q", rec.TraceID, callerTrace)
	}
	if rec.Status != http.StatusOK || rec.Endpoint != "score" {
		t.Fatalf("access log status=%d endpoint=%q", rec.Status, rec.Endpoint)
	}
	if len(rec.FEMs) != len(b.FrontEnds) {
		t.Fatalf("access log fe_ms has %d entries, want %d", len(rec.FEMs), len(b.FrontEnds))
	}
	if !rec.Sampled {
		t.Fatal("every=1 line not marked sampled")
	}
}

// TestTraceMintedWhenAbsent: a request without (or with a malformed)
// traceparent gets a fresh valid trace id.
func TestTraceMintedWhenAbsent(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 1)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seen := map[string]bool{}
	for _, hdr := range []string{"", "00-zz-bad-01", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"} {
		data, _ := json.Marshal(scoreRequestFor(b, testbundle.Vector(7)))
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/score", bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/json")
		if hdr != "" {
			req.Header.Set("traceparent", hdr)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var sr ScoreResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
		if !ok {
			t.Fatalf("minted traceparent %q invalid", resp.Header.Get("traceparent"))
		}
		if sr.TraceID != id {
			t.Fatalf("body trace_id %q != header trace id %q", sr.TraceID, id)
		}
		if seen[id] {
			t.Fatalf("trace id %s reused", id)
		}
		seen[id] = true
		if e := findTrace(getTracez(t, ts), id); e == nil {
			t.Fatalf("minted trace %s missing from /tracez", id)
		} else if e.ParentSpanID != "" {
			t.Fatalf("minted trace has parent span %q", e.ParentSpanID)
		}
	}
}

// TestDegradedTraceRetainedAsExemplar forces one front-end down and checks
// the failure side of the retention policy: the degraded trace lands in the
// exemplar list with its surviving front-end set, and its access-log line
// is emitted even though sampling would have dropped it.
func TestDegradedTraceRetainedAsExemplar(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 1)
	var logBuf syncBuffer
	s := newTestServer(t, dir, func(c *Config) {
		c.AccessLog = &logBuf
		c.AccessLogEvery = 1000 // sampling alone would drop all but request 1
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A healthy request first occupies the sampling grid's first slot...
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, testbundle.Vector(7)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request status %d: %s", resp.StatusCode, body)
	}

	// ...then FE0 goes down and the next request degrades.
	disable := faultinject.Enable(&faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
		{Site: "serve.score.fe.FE0", Kind: faultinject.KindError, Every: 1, Err: "injected outage"},
	}})
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, testbundle.Vector(7)))
	disable()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request status %d: %s", resp.StatusCode, body)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Degraded {
		t.Fatal("fault did not degrade the request")
	}

	rep := getTracez(t, ts)
	var ex *obs.TraceEntry
	for _, e := range rep.Exemplars {
		if e.TraceID == sr.TraceID {
			ex = e
		}
	}
	if ex == nil {
		t.Fatalf("degraded trace %s not retained as exemplar", sr.TraceID)
	}
	if !ex.Degraded {
		t.Fatal("exemplar not marked degraded")
	}
	if len(ex.Surviving) != 1 || ex.Surviving[0] != "FE1" {
		t.Fatalf("exemplar survivors %v, want [FE1]", ex.Surviving)
	}
	if sp := ex.Root.Find("score.fe"); sp == nil {
		t.Fatal("degraded trace lost its span tree")
	}

	// The degraded request's log line was forced past sampling.
	var lines []accessRecord
	sc := bufio.NewScanner(strings.NewReader(logBuf.String()))
	for sc.Scan() {
		var rec accessRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("access log line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	var forced *accessRecord
	for i := range lines {
		if lines[i].TraceID == sr.TraceID {
			forced = &lines[i]
		}
	}
	if forced == nil {
		t.Fatalf("degraded request %s missing from access log: %v", sr.TraceID, lines)
	}
	if !forced.Degraded || forced.Sampled {
		t.Fatalf("degraded line should be forced (degraded=true, sampled=false): %+v", forced)
	}
}

// TestBatchTraceFansOut: one /v1/score/batch request produces a single
// trace whose tree contains one "utt" subtree per utterance.
func TestBatchTraceFansOut(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 1)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 3
	var batch BatchRequest
	for i := 0; i < n; i++ {
		u := scoreRequestFor(b, testbundle.Vector(uint64(i+10)))
		u.ID = fmt.Sprintf("u%d", i)
		batch.Utterances = append(batch.Utterances, u)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.TraceID == "" {
		t.Fatal("batch response has no trace id")
	}
	e := findTrace(getTracez(t, ts), br.TraceID)
	if e == nil {
		t.Fatal("batch trace missing from /tracez")
	}
	if e.Endpoint != "batch" {
		t.Fatalf("endpoint %q, want batch", e.Endpoint)
	}
	utts := 0
	for _, c := range e.Root.Children {
		if c.Name == "utt" {
			utts++
			for _, stage := range []string{"queue.wait", "score.fe", "fuse"} {
				if c.Find(stage) == nil {
					t.Fatalf("utterance subtree missing %q", stage)
				}
			}
		}
	}
	if utts != n {
		t.Fatalf("%d utt spans, want %d", utts, n)
	}
}

// TestMetricszFormats: JSON by default (metrics-only, with rolling
// windows), Prometheus exposition on ?format=prom, 400 on junk.
func TestMetricszFormats(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 1)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Score once so serve metrics exist.
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, testbundle.Vector(7))); resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d: %s", resp.StatusCode, body)
	}

	resp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default Content-Type %q", ct)
	}
	var rep obs.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rep.Spans) != 0 {
		t.Fatalf("/metricsz leaked %d process spans (use /tracez)", len(rep.Spans))
	}
	wd, ok := rep.Windows["serve.http.score.seconds"]
	if !ok {
		t.Fatalf("no rolling window for scoring latency; windows: %v", rep.Windows)
	}
	if wd.M1.Count < 1 || wd.M5.Count < wd.M1.Count {
		t.Fatalf("window counts m1=%d m5=%d", wd.M1.Count, wd.M5.Count)
	}
	if wd.M1.P95Sec < wd.M1.P50Sec {
		t.Fatalf("window p95 %v < p50 %v", wd.M1.P95Sec, wd.M1.P50Sec)
	}

	resp, err = ts.Client().Get(ts.URL + "/metricsz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	promBody := new(bytes.Buffer)
	promBody.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom Content-Type %q", ct)
	}
	text := promBody.String()
	for _, want := range []string{
		"# TYPE serve_http_score_seconds histogram",
		`serve_http_score_seconds_bucket{le="+Inf"}`,
		"serve_http_score_seconds_count",
		"serve_http_score_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, text)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/metricsz?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml status %d, want 400", resp.StatusCode)
	}
}

// TestDisableTracing: the benchmark baseline really is dark — no trace
// ids minted, nothing buffered, nothing logged.
func TestDisableTracing(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 1)
	var logBuf syncBuffer
	s := newTestServer(t, dir, func(c *Config) {
		c.DisableTracing = true
		c.AccessLog = &logBuf
		c.AccessLogEvery = 1
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, testbundle.Vector(7)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if tp := resp.Header.Get("traceparent"); tp != "" {
		t.Fatalf("tracing disabled but traceparent %q returned", tp)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.TraceID != "" {
		t.Fatalf("tracing disabled but trace_id %q in body", sr.TraceID)
	}
	if rep := getTracez(t, ts); rep.Added != 0 || len(rep.Recent) != 0 {
		t.Fatalf("tracing disabled but /tracez has %d traces", rep.Added)
	}
	if logBuf.String() != "" {
		t.Fatalf("tracing disabled but access log wrote %q", logBuf.String())
	}
}
