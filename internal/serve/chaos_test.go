package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/testbundle"
)

// TestSingleFrontEndLossDegradesFusion is the acceptance property: killing
// any single front-end yields degraded: true responses whose fused scores
// follow the documented surviving-subsystem fusion, with the survivors'
// scores bit-identical to a healthy run.
func TestSingleFrontEndLossDegradesFusion(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 21)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testbundle.Vector(9)
	want := testbundle.ExpectedScores(b, raw)
	req := scoreRequestFor(b, raw)

	for _, victim := range []string{"FE0", "FE1"} {
		disable := faultinject.Enable(&faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
			{Site: "serve.score.fe." + victim, Kind: faultinject.KindError, Every: 1, Err: "injected outage"},
		}})
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", req)
		disable()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("victim %s: status %d (want 200 degraded): %s", victim, resp.StatusCode, body)
		}
		var sr ScoreResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if !sr.Degraded {
			t.Fatalf("victim %s: response not marked degraded: %s", victim, body)
		}
		survivor := "FE0"
		if victim == "FE0" {
			survivor = "FE1"
		}
		if len(sr.Surviving) != 1 || sr.Surviving[0] != survivor {
			t.Fatalf("victim %s: surviving %v, want [%s]", victim, sr.Surviving, survivor)
		}
		if msg := sr.FrontEndErrors[victim]; !strings.Contains(msg, "injected outage") {
			t.Fatalf("victim %s: frontend_errors = %v", victim, sr.FrontEndErrors)
		}
		if _, ok := sr.Scores[victim]; ok {
			t.Fatalf("victim %s still has scores in a degraded response", victim)
		}
		// Survivor scores are bit-identical to a healthy run.
		for k, v := range want[survivor] {
			if sr.Scores[survivor][k] != v {
				t.Fatalf("victim %s: survivor score[%d] = %v, want %v", victim, k, sr.Scores[survivor][k], v)
			}
		}
		// The fused row follows the documented masked-fusion path, nothing
		// else.
		wantFused := testbundle.MaskedFused(b, sr.Scores)
		if len(sr.Fused) != len(wantFused) {
			t.Fatalf("victim %s: fused has %d entries, want %d", victim, len(sr.Fused), len(wantFused))
		}
		for k := range wantFused {
			if sr.Fused[k] != wantFused[k] {
				t.Fatalf("victim %s: fused[%d] = %v, want %v (masked fusion)", victim, k, sr.Fused[k], wantFused[k])
			}
		}
	}

	// Faults gone → full battery again, bit-identical to the healthy run,
	// not marked degraded.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos request: status %d: %s", resp.StatusCode, body)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Degraded || len(sr.Surviving) != 0 || len(sr.FrontEndErrors) != 0 {
		t.Fatalf("healthy response carries degradation markers: %s", body)
	}
	testbundle.SameRows(t, sr.Scores, want)
}

// TestChaosServeUnderSeededFaults is the chaos schedule of the acceptance
// criteria: a seeded fault plan across every serving-path injection site,
// thousands of concurrent requests, and the invariants (a) the daemon
// never crashes, (b) non-2xx responses stay bounded and well-formed,
// (c) non-degraded 200s are bit-identical to direct scoring, and
// (d) degraded 200s follow the documented masked-fusion contract.
func TestChaosServeUnderSeededFaults(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 22)
	s := newTestServer(t, dir, func(c *Config) {
		c.QueueDepth = 4096 // the chaos run measures fault handling, not backpressure
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testbundle.Vector(13)
	want := testbundle.ExpectedScores(b, raw)
	req := scoreRequestFor(b, raw)
	reqBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	wantFusedFull := make([]float64, testbundle.Langs)
	x := make([]float64, len(b.FrontEnds))
	for k := 0; k < testbundle.Langs; k++ {
		for q := range b.FrontEnds {
			x[q] = want[b.FrontEnds[q].Name][k]
		}
		wantFusedFull[k] = b.Fusion.Score(x)[1]
	}

	total := 10000
	// Coalescing turns requests into far fewer micro-batches, so the
	// serve.batch deterministic rule must fire well within the batch
	// count or the every-site-fired assertion below fails; short mode's
	// ~95 batches can't reach 211.
	batchEvery := 211
	if testing.Short() {
		total = 1500
		batchEvery = 23
	}
	plan := &faultinject.Plan{Seed: 1337, Rules: []faultinject.Rule{
		{Site: "serve.handler", Kind: faultinject.KindError, Prob: 0.03, Err: "chaos: handler fault"},
		{Site: "serve.batch", Kind: faultinject.KindPanic, Every: batchEvery},
		{Site: "serve.score.fe.FE0", Kind: faultinject.KindError, Prob: 0.03, Err: "chaos: FE0 down"},
		{Site: "serve.score.fe.FE1", Kind: faultinject.KindError, Prob: 0.03, Err: "chaos: FE1 down"},
		{Site: "parallel.task", Kind: faultinject.KindPanic, Every: 2003},
	}}
	disable := faultinject.Enable(plan)
	defer disable()

	var ok200, degraded, non2xx, malformed atomic.Int64
	var firstErr atomic.Value
	fail := func(format string, args ...any) {
		malformed.Add(1)
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	const clients = 16
	var wg sync.WaitGroup
	perClient := total / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", strings.NewReader(string(reqBody)))
				if err != nil {
					fail("transport error (daemon crashed?): %v", err)
					return
				}
				var sr ScoreResponse
				decErr := json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					// Every failure must still be a well-formed JSON error.
					non2xx.Add(1)
					if decErr != nil {
						fail("status %d with unparseable body: %v", resp.StatusCode, decErr)
					}
					continue
				}
				if decErr != nil {
					fail("200 with unparseable body: %v", decErr)
					continue
				}
				if sr.Degraded {
					degraded.Add(1)
					if len(sr.Surviving) == 0 || len(sr.FrontEndErrors) == 0 {
						fail("degraded response without surviving set or errors")
						continue
					}
					for _, fe := range sr.Surviving {
						for k, v := range want[fe] {
							if sr.Scores[fe][k] != v {
								fail("degraded: survivor %s score[%d] not bit-identical", fe, k)
							}
						}
					}
					mf := testbundle.MaskedFused(b, sr.Scores)
					for k := range mf {
						if sr.Fused[k] != mf[k] {
							fail("degraded: fused[%d] = %v, want %v (masked fusion)", k, sr.Fused[k], mf[k])
						}
					}
				} else {
					ok200.Add(1)
					// Non-degraded responses are bit-identical to direct
					// scoring — chaos elsewhere in the process must not
					// perturb them.
					for fe, row := range want {
						for k := range row {
							if sr.Scores[fe][k] != row[k] {
								fail("healthy response: %s score[%d] not bit-identical", fe, k)
							}
						}
					}
					for k := range wantFusedFull {
						if sr.Fused[k] != wantFusedFull[k] {
							fail("healthy response: fused[%d] not bit-identical", k)
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if v := firstErr.Load(); v != nil {
		t.Fatalf("%d malformed responses; first: %s", malformed.Load(), v)
	}
	sent := int64(clients * perClient)
	t.Logf("chaos: %d requests → %d healthy, %d degraded, %d non-2xx",
		sent, ok200.Load(), degraded.Load(), non2xx.Load())
	// Error rates stay bounded: the plan injects ~3% handler faults plus
	// occasional batch/pool panics (each costs at most one micro-batch), so
	// well under a quarter of traffic may fail; most must come back 200.
	if non2xx.Load() > sent/4 {
		t.Fatalf("unbounded error rate: %d non-2xx of %d", non2xx.Load(), sent)
	}
	if ok200.Load() < sent/2 {
		t.Fatalf("only %d of %d requests healthy", ok200.Load(), sent)
	}
	if degraded.Load() == 0 {
		t.Fatal("fault plan produced no degraded responses")
	}
	if non2xx.Load() == 0 {
		t.Fatal("fault plan produced no failed responses (sites not wired?)")
	}

	// Every planned site actually fired.
	snap := faultinject.Snapshot()
	for _, r := range plan.Rules {
		if snap[r.Site].Fires == 0 {
			t.Errorf("site %s never fired (hits=%d)", r.Site, snap[r.Site].Hits)
		}
	}
	// Degradations are visible in /metricsz.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", struct{}{})
	_ = resp
	_ = body
	mresp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Counters map[string]int64  `json:"counters"`
		Meta     map[string]string `json:"meta"`
	}
	decErr := json.NewDecoder(mresp.Body).Decode(&rep)
	mresp.Body.Close()
	if decErr != nil {
		t.Fatal(decErr)
	}
	if rep.Counters["serve.score.degraded"] == 0 {
		t.Error("metricsz: serve.score.degraded counter is zero after chaos")
	}
	if !strings.Contains(rep.Meta["front_ends"], "FE0") {
		t.Errorf("metricsz: meta front_ends = %q", rep.Meta["front_ends"])
	}

	// The daemon survived: disable faults, and a clean request is healthy
	// and bit-identical again.
	disable()
	resp2, body2 := postJSON(t, ts.Client(), ts.URL+"/v1/score", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos request: status %d: %s", resp2.StatusCode, body2)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body2, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Degraded {
		t.Fatal("post-chaos response still degraded")
	}
	testbundle.SameRows(t, sr.Scores, want)
}

// TestReloadRetryRecoversFromTransientFault: a reload that fails once and
// then succeeds must be absorbed by the retry loop without surfacing an
// error or tripping the breaker.
func TestReloadRetryRecoversFromTransientFault(t *testing.T) {
	dir := t.TempDir()
	testbundle.Write(t, dir, 23)
	reg := NewRegistry(dir)
	rl := newReloader(reg, ReloadPolicy{Retries: 2, BaseBackoff: time.Millisecond}, nil)

	defer faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "serve.reload", Kind: faultinject.KindError, Every: 1, Count: 1, Err: "transient I/O"},
	}})()
	m, err := rl.Reload()
	if err != nil {
		t.Fatalf("retry did not absorb a transient fault: %v", err)
	}
	if m == nil || m.Version != 1 {
		t.Fatalf("reload produced %+v", m)
	}
	if fires := faultinject.Snapshot()["serve.reload"].Fires; fires != 1 {
		t.Fatalf("site fired %d times, want 1", fires)
	}
	if obsReloadRetries.Value() == 0 {
		t.Error("retry counter never moved")
	}
}

// TestReloadBreakerOpensAndRecovers drives the breaker through its full
// cycle on a fake clock: repeated failures open it, reloads are then
// rejected without touching the registry, the cooldown admits a probe,
// and a successful probe closes it again.
func TestReloadBreakerOpensAndRecovers(t *testing.T) {
	dir := t.TempDir() // stays empty: every load fails until the bundle is written
	clk := newFakeClock()
	reg := NewRegistry(dir)
	rl := newReloader(reg, ReloadPolicy{
		Retries:   -1, // no retries: each Reload is exactly one attempt
		TripAfter: 3,
		Cooldown:  30 * time.Second,
	}, clk)

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := rl.Reload(); err == nil {
			t.Fatalf("reload %d of an empty dir succeeded", i)
		}
	}
	// Open: rejected up front with ErrBreakerOpen, even after the
	// underlying cause is fixed.
	testbundle.Write(t, dir, 24)
	if _, err := rl.Reload(); err == nil || !strings.Contains(err.Error(), ErrBreakerOpen.Error()) {
		t.Fatalf("open breaker let a reload through: %v", err)
	}
	// Still open just before the cooldown ends.
	clk.Advance(29 * time.Second)
	if _, err := rl.Reload(); err == nil || !strings.Contains(err.Error(), ErrBreakerOpen.Error()) {
		t.Fatalf("breaker closed before its cooldown: %v", err)
	}
	// Cooldown over → half-open probe runs and succeeds → closed.
	clk.Advance(2 * time.Second)
	m, err := rl.Reload()
	if err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if m.Version != 1 {
		t.Fatalf("probe loaded version %d, want 1", m.Version)
	}
	// Closed again: the next reload is a plain success.
	if _, err := rl.Reload(); err != nil {
		t.Fatalf("breaker did not close after a good probe: %v", err)
	}
}

// TestReloadBreakerHalfOpenFailureReArms: a failed half-open probe must
// re-arm the cooldown rather than close the breaker.
func TestReloadBreakerHalfOpenFailureReArms(t *testing.T) {
	dir := t.TempDir() // never gets a bundle: every probe fails
	clk := newFakeClock()
	rl := newReloader(NewRegistry(dir), ReloadPolicy{
		Retries:   -1,
		TripAfter: 2,
		Cooldown:  10 * time.Second,
	}, clk)

	for i := 0; i < 2; i++ {
		if _, err := rl.Reload(); err == nil {
			t.Fatal("reload of an empty dir succeeded")
		}
	}
	clk.Advance(11 * time.Second)
	// Half-open probe fails (dir still empty) — not ErrBreakerOpen, the
	// real load error.
	if _, err := rl.Reload(); err == nil || strings.Contains(err.Error(), ErrBreakerOpen.Error()) {
		t.Fatalf("half-open probe returned %v, want the load error", err)
	}
	// Immediately after, the breaker is open again.
	if _, err := rl.Reload(); err == nil || !strings.Contains(err.Error(), ErrBreakerOpen.Error()) {
		t.Fatalf("breaker did not re-arm after a failed probe: %v", err)
	}
}

// TestReloadEndpointBreaker503: the HTTP reload endpoint maps an open
// breaker to 503 + Retry-After while scoring keeps working.
func TestReloadEndpointBreaker503(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 25)
	s := newTestServer(t, dir, func(c *Config) {
		c.Reload = ReloadPolicy{Retries: -1, TripAfter: 2, Cooldown: 30 * time.Second}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Every reload fails at the injection site until the breaker trips.
	defer faultinject.Enable(&faultinject.Plan{Seed: 3, Rules: []faultinject.Rule{
		{Site: "serve.reload", Kind: faultinject.KindError, Every: 1, Err: "bundle store down"},
	}})()
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/-/reload", struct{}{})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing reload %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/-/reload", struct{}{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d (want 503): %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open breaker response has no Retry-After")
	}
	// Scoring is unaffected: the previous model still serves.
	raw := testbundle.Vector(11)
	sresp, sbody := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, raw))
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("scoring during open breaker: status %d: %s", sresp.StatusCode, sbody)
	}
}

// TestBatchDegradationIsPerUtterance pins the batch accounting contract:
// a front-end outage degrades exactly the utterances that requested the
// broken front-end — batch-mates that never touched it come back clean
// and bit-identical — and the top-level Degraded/DegradedCount summary
// tallies the per-utterance sets without replacing them.
func TestBatchDegradationIsPerUtterance(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 23)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testbundle.Vector(15)
	want := testbundle.ExpectedScores(b, raw)
	full := scoreRequestFor(b, raw)
	full.ID = "both-fes"
	only1 := ScoreRequest{ID: "fe1-only", FrontEnds: map[string]FrontEndInput{
		"FE1": full.FrontEnds["FE1"],
	}}
	batch := BatchRequest{Utterances: []ScoreRequest{full, only1, only1}}

	disable := faultinject.Enable(&faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
		{Site: "serve.score.fe.FE0", Kind: faultinject.KindError, Every: 1, Err: "injected outage"},
	}})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batch)
	disable()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("%d results, want 3", len(br.Results))
	}
	hit := br.Results[0]
	if !hit.Degraded || len(hit.Surviving) != 1 || hit.Surviving[0] != "FE1" {
		t.Fatalf("FE0-requesting utterance: %+v, want degraded with surviving [FE1]", hit)
	}
	if msg := hit.FrontEndErrors["FE0"]; !strings.Contains(msg, "injected outage") {
		t.Fatalf("FE0 error %q", msg)
	}
	for i := 1; i < 3; i++ {
		clean := br.Results[i]
		if clean.Degraded || clean.Error != "" || clean.Surviving != nil || clean.FrontEndErrors != nil {
			t.Fatalf("batch-mate %d smeared by its neighbour's degradation: %+v", i, clean)
		}
		for k, v := range want["FE1"] {
			if clean.Scores["FE1"][k] != v {
				t.Fatalf("batch-mate %d score[%d] = %v, want %v (bit-identical)", i, k, clean.Scores["FE1"][k], v)
			}
		}
	}
	if !br.Degraded || br.DegradedCount != 1 {
		t.Fatalf("batch summary degraded=%v count=%d, want true/1", br.Degraded, br.DegradedCount)
	}

	// A healthy batch carries no summary flags at all (wire-compatible
	// with pre-summary clients: the fields marshal away).
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy batch: status %d", resp.StatusCode)
	}
	if strings.Contains(string(body), "degraded") {
		t.Fatalf("healthy batch response leaks degraded fields: %s", body)
	}
}
