package serve

import (
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

// loggedTraces decodes every access-log line as an obs.TraceEntry and
// checks that each is byte for byte its /tracez record (from recent or
// exemplars) plus a newline. Every logged request must still be in
// /tracez.
func loggedTraces(t *testing.T, ts *httptest.Server, log string) []obs.TraceEntry {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct{ Recent, Exemplars []json.RawMessage }
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	records := map[string][]byte{}
	for _, rec := range append(raw.Recent, raw.Exemplars...) {
		var e obs.TraceEntry
		if err := json.Unmarshal(rec, &e); err != nil {
			t.Fatalf("/tracez record %s: %v", rec, err)
		}
		records[e.TraceID] = rec
	}
	var out []obs.TraceEntry
	for _, line := range strings.SplitAfter(log, "\n") {
		if line == "" {
			continue
		}
		var e obs.TraceEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		if rec, ok := records[e.TraceID]; !ok {
			t.Fatalf("logged trace %s missing from /tracez", e.TraceID)
		} else if line != string(rec)+"\n" {
			t.Fatalf("access log line differs from its /tracez record:\nline   %q\nrecord %q", line, rec)
		}
		out = append(out, e)
	}
	return out
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
	if e.Degraded {
		t.Fatal("healthy request marked degraded")
	}

	// Span tree: every stage present, each stage no longer than the root.
	if e.Root == nil {
		t.Fatal("no span tree buffered")
	}
	// The body is read under "read", then parsed under "decode": two
	// consecutive children of the root, in that order.
	var stages []string
	for _, c := range e.Root.Children {
		if c.Name == "read" || c.Name == "decode" {
			stages = append(stages, c.Name)
		}
	}
	if len(stages) != 2 || stages[0] != "read" || stages[1] != "decode" {
		t.Fatalf("root's read/decode children %v, want [read decode]", stages)
	}
	if rd, dc := e.Root.Find("read"), e.Root.Find("decode"); dc.Start.Before(rd.Start) {
		t.Fatalf("decode started %v before read %v", dc.Start, rd.Start)
	}
	fes := 0
	for _, stage := range []string{"read", "decode", "resolve", "score.fe", "fuse"} {
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

	// Access log: one line, the /tracez record itself, with a timed
	// score.fe span per front-end.
	lines := loggedTraces(t, ts, logBuf.String())
	if len(lines) != 1 {
		t.Fatalf("%d access log lines, want 1", len(lines))
	}
	rec := lines[0]
	if rec.TraceID != callerTrace {
		t.Fatalf("access log trace_id %q, want %q", rec.TraceID, callerTrace)
	}
	if rec.Status != http.StatusOK || rec.Endpoint != "score" {
		t.Fatalf("access log status=%d endpoint=%q", rec.Status, rec.Endpoint)
	}
	feTimed := map[string]bool{}
	for _, c := range rec.Root.Children {
		if c.Name == "score.fe" && c.DurationSec > 0 {
			feTimed[c.Labels["fe"]] = true
		}
	}
	if len(feTimed) != len(b.FrontEnds) {
		t.Fatalf("access log line times front-ends %v, want %d", feTimed, len(b.FrontEnds))
	}
}

// TestTraceMintedWhenAbsent: a request without (or with a malformed)
// traceparent gets a fresh valid trace id, and so does a malformed body,
// whose 400 trace records why.
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

	resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", strings.NewReader(`{"frontends":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if resp.StatusCode != http.StatusBadRequest || !ok {
		t.Fatalf("malformed body: status %d, traceparent %q", resp.StatusCode, resp.Header.Get("traceparent"))
	}
	if e := findTrace(getTracez(t, ts), id); e == nil || e.Status != http.StatusBadRequest || !strings.HasPrefix(e.Error, "bad request body: ") {
		t.Fatalf("400 trace %s does not say why: %+v", id, e)
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

	// The degraded request's log line was forced past sampling: request
	// 2 is off the every-1000 grid.
	lines := loggedTraces(t, ts, logBuf.String())
	if len(lines) != 2 || lines[1].TraceID != sr.TraceID {
		t.Fatalf("access log has %d lines, want the sampled first and the degraded %s: %+v", len(lines), sr.TraceID, lines)
	}
	if !lines[1].Degraded {
		t.Fatalf("forced line not degraded: %+v", lines[1])
	}
}

// TestAdmissionRejectionsTraced: requests turned away before decode — a
// draining server's 503, a 405, and a WaitForModel server's 503 with no
// model loaded — are traced like any other: a traceparent in the
// response, a /tracez exemplar naming the rejection, and an access-log
// line forced past sampling.
func TestAdmissionRejectionsTraced(t *testing.T) {
	dir := t.TempDir()
	testbundle.Write(t, dir, 1)
	var drainLog, emptyLog syncBuffer
	draining := newTestServer(t, dir, func(c *Config) {
		c.AccessLog = &drainLog
		c.AccessLogEvery = 1000
	})
	draining.draining.Store(true)
	empty := newTestServer(t, t.TempDir(), func(c *Config) {
		c.WaitForModel = true
		c.AccessLog = &emptyLog
		c.AccessLogEvery = 1000
	})
	for _, c := range []struct {
		name   string
		s      *Server
		log    *syncBuffer
		method string
		status int
		err    string
	}{
		{"draining", draining, &drainLog, http.MethodPost, http.StatusServiceUnavailable, "server is draining"},
		{"GET", draining, &drainLog, http.MethodGet, http.StatusMethodNotAllowed, "POST only"},
		{"no model", empty, &emptyLog, http.MethodPost, http.StatusServiceUnavailable, "no model loaded"},
		{"no model again", empty, &emptyLog, http.MethodPost, http.StatusServiceUnavailable, "no model loaded"},
	} {
		ts := httptest.NewServer(c.s.Handler())
		req, _ := http.NewRequest(c.method, ts.URL+"/v1/score", strings.NewReader(`{}`))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
		if resp.StatusCode != c.status || !ok {
			t.Fatalf("%s: status %d, traceparent %q", c.name, resp.StatusCode, resp.Header.Get("traceparent"))
		}
		var ex *obs.TraceEntry
		for _, e := range getTracez(t, ts).Exemplars {
			if e.TraceID == id {
				ex = e
			}
		}
		if ex == nil || ex.Status != c.status || ex.Error != c.err || ex.ModelVersion != 0 {
			t.Fatalf("%s: rejection %s is not an exemplar with status %d and error %q: %+v", c.name, id, c.status, c.err, ex)
		}
		// The second request on each server is off the sampling grid,
		// so its line is there only because it was forced.
		lines := loggedTraces(t, ts, c.log.String())
		if last := lines[len(lines)-1]; last.TraceID != id {
			t.Fatalf("%s: last access log line is trace %s, want %s", c.name, last.TraceID, id)
		}
		ts.Close()
	}
	for _, log := range []*syncBuffer{&drainLog, &emptyLog} {
		if n := strings.Count(log.String(), "\n"); n != 2 {
			t.Fatalf("%d access log lines for 2 rejections: %s", n, log.String())
		}
	}
}

// TestAccessLogMatchesTracezConcurrent: concurrent scoring requests,
// /tracez reads and access logging on one server (run it under -race).
// Every logged line parses and is byte for byte its /tracez record, so
// the bytes the trace buffer and the logger share are never written
// after the buffer keeps them.
func TestAccessLogMatchesTracezConcurrent(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 1)
	var logBuf syncBuffer
	s := newTestServer(t, dir, func(c *Config) {
		c.AccessLog = &logBuf
		c.AccessLogEvery = 1
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients, each = 4, 25 // 100 requests: all stay in the recent ring
	data, _ := json.Marshal(scoreRequestFor(b, testbundle.Vector(7)))
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := ts.Client().Get(ts.URL + "/tracez")
			if err != nil {
				t.Error(err)
				return
			}
			var rep obs.TracezReport
			err = json.NewDecoder(resp.Body).Decode(&rep)
			resp.Body.Close()
			if err != nil {
				t.Errorf("bad /tracez body: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}
	if lines := loggedTraces(t, ts, logBuf.String()); len(lines) != clients*each {
		t.Fatalf("%d access log lines, want %d", len(lines), clients*each)
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
			for _, stage := range []string{"resolve", "score.fe", "fuse"} {
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
