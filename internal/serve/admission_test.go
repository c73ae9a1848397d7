package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/testbundle"
)

func newPass(ctx context.Context) *pass {
	return &pass{ctx: ctx, utts: []*Utterance{{}}, res: make([]uttResult, 1), done: make(chan struct{})}
}

// holdPasses makes every scoring pass of s signal entered (without
// blocking) and then wait for release before it scores, so a test knows
// a pass holds its admission slot. release is idempotent and also runs
// at cleanup, before the server's own cleanup drains it.
func holdPasses(t *testing.T, s *Server) (entered <-chan struct{}, release func()) {
	t.Helper()
	in := make(chan struct{}, 64) // above any test's passes in flight, so no signal drops
	gate := make(chan struct{})
	score := s.passes.process
	s.passes.process = func(p *pass) {
		select {
		case in <- struct{}{}:
		default:
		}
		<-gate
		score(p)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return in, release
}

// postAsync posts body to url on its own goroutine; the channel receives
// the status, or -1 on a transport error.
func postAsync(client *http.Client, url string, body any) <-chan int {
	done := make(chan int, 1)
	data, _ := json.Marshal(body)
	go func() {
		resp, err := client.Post(url, "application/json", strings.NewReader(string(data)))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

// TestBatchRequestAdmitsOnce: a batch request takes one admission slot,
// however many utterances it carries, and they share one scoring pass.
// An idle server with QueueDepth 4 scores a 16-utterance batch in full.
func TestBatchRequestAdmitsOnce(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 15)
	const depth = 4
	s := newTestServer(t, dir, func(c *Config) { c.QueueDepth = depth })
	var mu sync.Mutex
	var passes []int
	score := s.passes.process
	s.passes.process = func(p *pass) {
		mu.Lock()
		passes = append(passes, len(p.utts))
		mu.Unlock()
		score(p)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var req BatchRequest
	var wants []map[string][]float64
	for i := 0; i < 4*depth; i++ {
		raw := testbundle.Vector(uint64(300 + i))
		u := scoreRequestFor(b, raw)
		u.ID = fmt.Sprintf("u%02d", i)
		req.Utterances = append(req.Utterances, u)
		wants = append(wants, testbundle.ExpectedScores(b, raw))
	}
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
		if res.Error != "" {
			t.Fatalf("utterance %s failed: %s", req.Utterances[i].ID, res.Error)
		}
		testbundle.SameRows(t, res.Scores, wants[i])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(passes) != 1 || passes[0] != len(req.Utterances) {
		t.Fatalf("scoring passes %v, want one of %d utterances", passes, len(req.Utterances))
	}
}

// TestAdmissionFullAnswers429: with every slot held by a gated pass, the
// next request is rejected at once with 429 + Retry-After and counted;
// the held requests still finish once released.
func TestAdmissionFullAnswers429(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 16)
	const depth = 2
	s := newTestServer(t, dir, func(c *Config) { c.QueueDepth = depth })
	entered, release := holdPasses(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := scoreRequestFor(b, testbundle.Vector(5))
	var held []<-chan int
	for i := 0; i < depth; i++ {
		held = append(held, postAsync(ts.Client(), ts.URL+"/v1/score", req))
		<-entered
	}
	rejected := obsRejected.Value()
	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/score", req)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("score with every slot held: status %d, Retry-After %q: %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), out)
	}
	// A batch reports per utterance: every one carries the rejection.
	_, out = postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", BatchRequest{Utterances: []ScoreRequest{req, req}})
	var br BatchResponse
	if err := json.Unmarshal(out, &br); err != nil || len(br.Results) != 2 {
		t.Fatalf("batch with every slot held: %v: %s", err, out)
	}
	for i, r := range br.Results {
		if !strings.Contains(r.Error, ErrQueueFull.Error()) {
			t.Fatalf("batch utterance %d with every slot held: %+v", i, r)
		}
	}
	if got := obsRejected.Value() - rejected; got != 2 {
		t.Fatalf("serve.queue.rejected grew by %d, want 2 (one per rejected call)", got)
	}
	release()
	for i, st := range held {
		if got := <-st; got != http.StatusOK {
			t.Fatalf("held request %d finished with status %d", i, got)
		}
	}
	// The slots came back: the server admits again.
	if resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/score", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, out)
	}
}

// TestAdmissionTimedOutPassKeepsSlot: a request that answers 504 while
// its pass is held leaves the pass holding its slot, so with QueueDepth
// 1 the next request gets 429. Once released, the pass skips the expired
// job and gives the slot back, and the next request scores.
func TestAdmissionTimedOutPassKeepsSlot(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 19)
	s := newTestServer(t, dir, func(c *Config) {
		c.QueueDepth = 1
		c.RequestTimeout = 100 * time.Millisecond
	})
	entered, release := holdPasses(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := scoreRequestFor(b, testbundle.Vector(7))
	expired := obsExpired.Value()
	if resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/score", req); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("request with its pass held: status %d (want 504): %s", resp.StatusCode, out)
	}
	<-entered
	if resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/score", req); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request while the timed-out pass holds the slot: status %d (want 429): %s", resp.StatusCode, out)
	}
	release()
	for deadline := time.Now().Add(10 * time.Second); len(s.passes.slots) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the released pass never gave its slot back")
		}
	}
	if got := obsExpired.Value() - expired; got != 1 {
		t.Fatalf("serve.jobs.expired grew by %d, want 1 (the timed-out job)", got)
	}
	if resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/score", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, out)
	}
}

// TestAdmissionDrainFinishesAdmitted: a drain that starts while a pass
// holds its slot lets the admitted request finish with 200, answers new
// requests 503 meanwhile, and returns cleanly once the pass ends.
func TestAdmissionDrainFinishesAdmitted(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 17)
	s := newTestServer(t, dir, func(c *Config) { c.DrainTimeout = 30 * time.Second })
	entered, release := holdPasses(t, s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	req := scoreRequestFor(b, testbundle.Vector(6))
	admitted := postAsync(client, base+"/v1/score", req)
	<-entered
	cancel()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	// The listener stays open until the admitted pass ends.
	resp, out := postJSON(t, client, base+"/v1/score", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d (want 503): %s", resp.StatusCode, out)
	}
	// A call that passed the draining check just before the flag flipped
	// is refused by admission itself, once the drain has closed it.
	for closed := false; !closed; time.Sleep(time.Millisecond) {
		s.passes.mu.RLock()
		closed = s.passes.closed
		s.passes.mu.RUnlock()
	}
	if err := s.passes.submit(newPass(context.Background())); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	release()
	if st := <-admitted; st != http.StatusOK {
		t.Fatalf("admitted request finished with status %d during drain", st)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v, want nil (clean drain)", err)
	}
}

// TestAdmissionDrainTimeout: a pass that cannot finish makes drain
// return its context's error rather than hang. A cancelled context
// stands in for the elapsed drain deadline, so the outcome does not
// depend on scheduling.
func TestAdmissionDrainTimeout(t *testing.T) {
	a := newAdmission(1)
	block := make(chan struct{})
	defer close(block)
	a.process = func(*pass) { <-block }
	if err := a.submit(newPass(context.Background())); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with a stuck pass: %v, want context.Canceled", err)
	}
}

// TestAdmissionPanicIsolation: a panic at the serve.batch site fails
// every utterance of that pass with an error result, without a hang, and
// the next pass scores normally.
func TestAdmissionPanicIsolation(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 18)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := BatchRequest{Utterances: []ScoreRequest{
		scoreRequestFor(b, testbundle.Vector(1)),
		scoreRequestFor(b, testbundle.Vector(2)),
		scoreRequestFor(b, testbundle.Vector(3)),
	}}
	disable := faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "serve.batch", Kind: faultinject.KindPanic, Every: 1, Count: 1, Err: "scoring exploded"},
	}})
	defer disable()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	for i, r := range br.Results {
		if !strings.Contains(r.Error, "scoring pass panicked") || !strings.Contains(r.Error, "scoring exploded") {
			t.Fatalf("utterance %d of a panicking pass: %+v, want the wrapped panic", i, r)
		}
	}
	// The process survived, and the rule's one fire is spent.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after the panic: status %d: %s", resp.StatusCode, body)
	}
	var after BatchResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	for i, r := range after.Results {
		if r.Error != "" {
			t.Fatalf("utterance %d after the panic failed: %s", i, r.Error)
		}
	}
}

// TestScorePassSkipsExpired: a pass whose request expired before it
// began fails its jobs with the context's error instead of scoring them.
func TestScorePassSkipsExpired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := newPass(ctx)
	scorePass(p)
	if err := p.res[0].err; !errors.Is(err, context.Canceled) {
		t.Fatalf("expired job got %v, want context.Canceled", err)
	}
}
