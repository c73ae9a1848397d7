package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ngram"
	"repro/internal/persist"
	"repro/internal/sparse"
	"repro/internal/testbundle"
)

func newTestServer(t *testing.T, dir string, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{ModelDir: dir}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.passes.drain(context.Background())
	})
	return s
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func scoreRequestFor(b *persist.Bundle, raw *sparse.Vector) ScoreRequest {
	req := ScoreRequest{ID: "u1", FrontEnds: make(map[string]FrontEndInput)}
	for i := range b.FrontEnds {
		req.FrontEnds[b.FrontEnds[i].Name] = FrontEndInput{
			Supervector: &Supervector{Idx: raw.Idx, Val: raw.Val},
		}
	}
	return req
}

func TestScoreSupervectorMatchesDirectScoring(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 1)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testbundle.Vector(7)
	want := testbundle.ExpectedScores(b, raw)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, raw))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ModelVersion != 1 {
		t.Fatalf("model version %d, want 1", sr.ModelVersion)
	}
	testbundle.SameRows(t, sr.Scores, want)
	// All front-ends present → fused scores from the trial backend.
	if len(sr.Fused) != testbundle.Langs {
		t.Fatalf("fused has %d entries, want %d", len(sr.Fused), testbundle.Langs)
	}
	x := make([]float64, len(b.FrontEnds))
	for k := 0; k < testbundle.Langs; k++ {
		for q := range b.FrontEnds {
			x[q] = want[b.FrontEnds[q].Name][k]
		}
		if got := b.Fusion.Score(x)[1]; sr.Fused[k] != got {
			t.Fatalf("fused[%d] = %v, want %v", k, sr.Fused[k], got)
		}
	}
	if sr.Best == "" {
		t.Fatal("no best language")
	}
}

func TestScoreLatticeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 2)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One front-end by lattice: the server must decode it to the same
	// supervector the ngram layer produces locally.
	slots := [][]Slot{
		{{Phone: 0, Prob: 0.7}, {Phone: 1, Prob: 0.3}},
		{{Phone: 2, Prob: 1}},
		{{Phone: 3, Prob: 0.5}, {Phone: 4, Prob: 0.5}},
	}
	req := ScoreRequest{FrontEnds: map[string]FrontEndInput{
		b.FrontEnds[0].Name: {Lattice: slots},
	}}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	l, err := latticeFromSlots(slots, testbundle.Phones)
	if err != nil {
		t.Fatal(err)
	}
	v := ngram.NewSpace(testbundle.Phones, testbundle.Order).Supervector(l)
	b.FrontEnds[0].TFLLR.Apply(v)
	want := b.FrontEnds[0].OVR.Scores(v)
	got := sr.Scores[b.FrontEnds[0].Name]
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("lattice score[%d] = %v, want %v", k, got[k], want[k])
		}
	}
	// Partial battery → no fused row.
	if sr.Fused != nil {
		t.Fatal("fused scores from a partial front-end set")
	}
}

func TestScoreBatchEndpoint(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 3)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var req BatchRequest
	var wants []map[string][]float64
	for i := 0; i < 9; i++ {
		raw := testbundle.Vector(uint64(100 + i))
		u := scoreRequestFor(b, raw)
		u.ID = fmt.Sprintf("u%d", i)
		req.Utterances = append(req.Utterances, u)
		wants = append(wants, testbundle.ExpectedScores(b, raw))
	}
	// One utterance with a bogus front-end degrades only itself.
	req.Utterances[4].FrontEnds = map[string]FrontEndInput{"NOPE": {}}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(req.Utterances) {
		t.Fatalf("%d results for %d utterances", len(br.Results), len(req.Utterances))
	}
	for i, res := range br.Results {
		if i == 4 {
			if res.Error == "" {
				t.Fatal("bad utterance did not report an error")
			}
			continue
		}
		if res.Error != "" {
			t.Fatalf("utterance %d failed: %s", i, res.Error)
		}
		testbundle.SameRows(t, res.Scores, wants[i])
	}
}

func TestBadRequests(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 4)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fe := b.FrontEnds[0].Name

	cases := []struct {
		name string
		req  ScoreRequest
	}{
		{"no front-ends", ScoreRequest{}},
		{"unknown front-end", ScoreRequest{FrontEnds: map[string]FrontEndInput{"XX": {Supervector: &Supervector{}}}}},
		{"empty input", ScoreRequest{FrontEnds: map[string]FrontEndInput{fe: {}}}},
		{"both inputs", ScoreRequest{FrontEnds: map[string]FrontEndInput{fe: {
			Supervector: &Supervector{Idx: []int32{0}, Val: []float64{1}},
			Lattice:     [][]Slot{{{Phone: 0, Prob: 1}}},
		}}}},
		{"length mismatch", ScoreRequest{FrontEnds: map[string]FrontEndInput{fe: {
			Supervector: &Supervector{Idx: []int32{0, 1}, Val: []float64{1}},
		}}}},
		{"unsorted indices", ScoreRequest{FrontEnds: map[string]FrontEndInput{fe: {
			Supervector: &Supervector{Idx: []int32{3, 1}, Val: []float64{1, 1}},
		}}}},
		{"index out of space", ScoreRequest{FrontEnds: map[string]FrontEndInput{fe: {
			Supervector: &Supervector{Idx: []int32{9999}, Val: []float64{1}},
		}}}},
		{"phone out of inventory", ScoreRequest{FrontEnds: map[string]FrontEndInput{fe: {
			Lattice: [][]Slot{{{Phone: 99, Prob: 1}}},
		}}}},
		{"dead slot", ScoreRequest{FrontEnds: map[string]FrontEndInput{fe: {
			Lattice: [][]Slot{{{Phone: 0, Prob: 0}}},
		}}}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (want 400): %s", tc.name, resp.StatusCode, body)
		}
	}

	if resp, _ := ts.Client().Get(ts.URL + "/v1/score"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/score: status %d (want 405)", resp.StatusCode)
	}

	// A body is exactly one JSON value: trailing whitespace is fine, a
	// second value or garbage after it is not.
	one, _ := json.Marshal(scoreRequestFor(b, testbundle.Vector(7)))
	batch := `{"utterances":[` + string(one) + `]}`
	for i, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/score", "{not json", http.StatusBadRequest},
		{"/v1/score", string(one) + " \n\t", http.StatusOK},
		{"/v1/score", string(one) + " garbage", http.StatusBadRequest},
		{"/v1/score", string(one) + `{"frontends":{}}`, http.StatusBadRequest},
		{"/v1/score", string(one) + "]", http.StatusBadRequest},
		{"/v1/score/batch", batch + "\n", http.StatusOK},
		{"/v1/score/batch", batch + "[1,2", http.StatusBadRequest},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want || (tc.want != http.StatusOK && !strings.Contains(string(out), "bad request body")) {
			t.Fatalf("raw body %d to %s: status %d (want %d): %s", i, tc.path, resp.StatusCode, tc.want, out)
		}
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	dir := t.TempDir()
	testbundle.Write(t, dir, 5)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz", "/metricsz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if !json.Valid(body) {
			t.Fatalf("%s: not JSON: %s", path, body)
		}
	}
}

// TestHotReloadUnderLoad proves the acceptance property: reloads swap the
// model atomically without dropping or corrupting in-flight requests.
// Clients hammer /v1/score while the test rewrites the bundle directory
// and reloads repeatedly; every response must be 200 and bit-identical to
// one of the model generations' direct scores.
func TestHotReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	bundles := map[int64]*persist.Bundle{1: testbundle.Write(t, dir, 10)}
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testbundle.Vector(42)
	// Reloads are deterministic (seed 20+i%2 for generation 2+i), so every
	// generation's expected scores are known before the storm starts — no
	// window where a client can see a version the test can't check.
	wantByVersion := map[int64]map[string][]float64{1: testbundle.ExpectedScores(bundles[1], raw)}
	nextBundles := make([]*persist.Bundle, 6)
	for i := range nextBundles {
		nextBundles[i] = testbundle.New(uint64(20 + i%2))
		wantByVersion[int64(2+i)] = testbundle.ExpectedScores(nextBundles[i], raw)
	}
	reqBody, err := json.Marshal(scoreRequestFor(bundles[1], raw))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var failures atomic.Int64
	var scored atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					failures.Add(1)
					t.Errorf("request error: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("status %d during reload: %s", resp.StatusCode, body)
					return
				}
				var sr ScoreResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					failures.Add(1)
					t.Error(err)
					return
				}
				want, ok := wantByVersion[sr.ModelVersion]
				if !ok {
					failures.Add(1)
					t.Errorf("response from unknown model version %d", sr.ModelVersion)
					return
				}
				for fe, row := range want {
					for k := range row {
						if sr.Scores[fe][k] != row[k] {
							failures.Add(1)
							t.Errorf("version %d: %s score[%d] mismatch", sr.ModelVersion, fe, k)
							return
						}
					}
				}
				scored.Add(1)
			}
		}()
	}

	// Reload 6 new generations under load, alternating bundle contents.
	for i, b := range nextBundles {
		if err := persist.SaveBundle(dir, b, persist.Manifest{Seed: uint64(20 + i%2)}); err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/-/reload", struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload: status %d: %s", resp.StatusCode, body)
		}
		var rr struct {
			ModelVersion int64 `json:"model_version"`
		}
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.ModelVersion != int64(2+i) {
			t.Fatalf("reload %d produced version %d, want %d", i, rr.ModelVersion, 2+i)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failed requests during hot reload", failures.Load())
	}
	if scored.Load() == 0 {
		t.Fatal("no requests completed during the reload storm")
	}
	if v := s.Registry().Current().Version; v != 7 {
		t.Fatalf("final model version %d, want 7", v)
	}
}

// TestGracefulDrain proves the acceptance property: under concurrent
// load, shutdown (a) finishes every accepted request, (b) rejects new
// work with 503 while draining, and (c) returns cleanly within the drain
// deadline.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 11)
	s := newTestServer(t, dir, func(c *Config) {
		c.DrainTimeout = 30 * time.Second
	})
	// Gate the scoring passes so admitted requests are provably still
	// being scored when the drain starts (no sleep-length race: no pass
	// can finish until the test releases it).
	_, release := holdPasses(t, s)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	raw := testbundle.Vector(3)
	reqBody, _ := json.Marshal(scoreRequestFor(b, raw))

	const accepted = 24
	statuses := make(chan int, accepted)
	var wg sync.WaitGroup
	for i := 0; i < accepted; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(base+"/v1/score", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	// Pull the plug only once every request is provably in flight (inside a
	// handler or held at the gate) — polling the server's own in-flight
	// gauge replaces the old sleep-and-hope.
	for s.inflight.Load() < accepted {
		time.Sleep(time.Millisecond)
	}
	cancel()

	// While draining, new work must be rejected with 503 (the listener is
	// still open: Shutdown only runs after the admitted passes finish).
	saw503 := false
	for i := 0; i < 50 && !saw503; i++ {
		resp, err := client.Post(base+"/v1/score", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			break // listener already closed — drain finished
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			saw503 = true
		} else if resp.StatusCode != http.StatusOK {
			t.Errorf("probe during drain: status %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Release the scoring gate: the drain must now finish every admitted
	// pass.
	release()
	wg.Wait()
	close(statuses)
	ok200 := 0
	for st := range statuses {
		switch st {
		case http.StatusOK:
			ok200++
		case http.StatusServiceUnavailable:
			// Arrived after the drain flag flipped — rejected, not dropped.
		default:
			t.Errorf("accepted request finished with status %d", st)
		}
	}
	if ok200 == 0 {
		t.Fatal("no accepted request completed during drain")
	}
	if !saw503 {
		t.Error("never observed a 503 while draining")
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v, want nil (clean drain)", err)
	}
}

func TestNewFailsFastOnBadBundleDir(t *testing.T) {
	_, err := New(Config{ModelDir: t.TempDir()})
	if err == nil {
		t.Fatal("New accepted an empty bundle directory")
	}
}

// TestRequestDeadlineWhileScoring: a request whose pass is still held at
// its deadline answers 504.
func TestRequestDeadlineWhileScoring(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 12)
	s := newTestServer(t, dir, func(c *Config) {
		c.RequestTimeout = 30 * time.Millisecond
	})
	// A scoring pass that cannot finish before the request deadline: the
	// gate is released only at cleanup, so the handler must come back with
	// 504 — there is no schedule under which the pass wins the race.
	holdPasses(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testbundle.Vector(4)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, raw))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504): %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("no error body: %s", body)
	}
}

// TestRoutingResolutionOnlyValidates: a routing model judges every input
// as a scoring model does but builds no vectors. A lattice and an
// unscaled supervector resolve to nil Vectors there, the supervector's
// values as sent (the shard that scores it applies TFLLR), and to one
// vector per front-end on the scoring model; a phone outside the
// inventory is the same error on both.
func TestRoutingResolutionOnlyValidates(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 3)
	s := newTestServer(t, dir, nil)
	routing, err := s.NewRoutingRegistry().Reload()
	if err != nil {
		t.Fatal(err)
	}
	defer routing.Image.Close()
	req := scoreRequestFor(b, testbundle.Vector(3))
	req.FrontEnds["FE0"] = FrontEndInput{Lattice: [][]Slot{{{Phone: 1, Prob: 0.6}, {Phone: 2, Prob: 0.4}}, {{Phone: 0, Prob: 1}}}}
	sent := append([]float64(nil), req.FrontEnds["FE1"].Supervector.Val...)
	u := Utterance{Req: &req}
	if err := resolve(routing, &u); err != nil || u.Vectors != nil {
		t.Fatalf("routing resolution: err %v, vectors %v; want nil, nil", err, u.Vectors)
	}
	if got := req.FrontEnds["FE1"].Supervector.Val; !reflect.DeepEqual(got, sent) {
		t.Fatalf("routing resolution changed the supervector: %v, sent %v", got, sent)
	}
	if err := resolve(s.reg.Current(), &u); err != nil || len(u.Vectors) != 2 {
		t.Fatalf("scoring resolution: err %v, %d vectors; want nil, 2", err, len(u.Vectors))
	}
	req.FrontEnds["FE0"] = FrontEndInput{Lattice: [][]Slot{{{Phone: 99, Prob: 1}}}}
	errRouting, errScoring := resolve(routing, &u), resolve(s.reg.Current(), &u)
	if errRouting == nil || errScoring == nil || errRouting.Error() != errScoring.Error() {
		t.Fatalf("phone 99: routing %v, scoring %v; want the same error", errRouting, errScoring)
	}
}
