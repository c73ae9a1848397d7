package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/faultinject"
	"repro/internal/persist"
	"repro/internal/testbundle"
)

func TestAdaptDisabledSurfaces(t *testing.T) {
	dir := t.TempDir()
	testbundle.Write(t, dir, 40)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/adaptz")
	if err != nil {
		t.Fatal(err)
	}
	var st adapt.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Enabled {
		t.Fatalf("disabled /adaptz: status %d, enabled %v", resp.StatusCode, st.Enabled)
	}

	for _, ep := range []string{"/-/adapt/promote", "/-/adapt/rollback"} {
		resp, body := postJSON(t, ts.Client(), ts.URL+ep, struct{}{})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while disabled: status %d: %s", ep, resp.StatusCode, body)
		}
		// Mutating endpoints are POST-only.
		getResp, err := ts.Client().Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		getResp.Body.Close()
		if getResp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: status %d, want 405", ep, getResp.StatusCode)
		}
	}
}

func TestAdaptRequiresSidecar(t *testing.T) {
	dir := t.TempDir()
	testbundle.Write(t, dir, 41) // no sidecar
	_, err := New(Config{ModelDir: dir, Adapt: "on"})
	if err == nil {
		t.Fatal("server started with -adapt but no sidecar")
	}
}

func TestAdaptPromoteAndRollbackEndpoints(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.WriteAdapt(t, dir, testbundle.New(42), 42)
	s := newTestServer(t, dir, func(c *Config) { c.Adapt = testbundle.AdaptPolicy })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Forced promote with an empty buffer: 200, outcome explains the skip.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/-/adapt/promote", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty promote: status %d: %s", resp.StatusCode, body)
	}
	var res adapt.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Promoted || res.Outcome != adapt.OutcomeNoData {
		t.Fatalf("empty promote outcome %q", res.Outcome)
	}
	// Rollback with nothing promoted: 409, not a 5xx from a panic.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/-/adapt/rollback", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("no-op rollback: status %d: %s", resp.StatusCode, body)
	}

	// A real promotion through the HTTP surface.
	testbundle.FeedAdapter(s.Adapter(), s.reg.Current().Bundle, 12)
	resp, body = postJSON(t, ts.Client(), ts.URL+"/-/adapt/promote", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.Generation != 1 {
		t.Fatalf("promote result %+v (%s)", res, body)
	}
	m := s.reg.Current()
	if m.Gen.Generation != 1 {
		t.Fatalf("serving generation %d after promote, want 1", m.Gen.Generation)
	}
	if m.Version != 2 {
		t.Fatalf("model version %d after promote, want 2 (hot swap went through the reloader)", m.Version)
	}

	// /adaptz reflects the new generation.
	azResp, err := ts.Client().Get(ts.URL + "/adaptz")
	if err != nil {
		t.Fatal(err)
	}
	var st adapt.Status
	if err := json.NewDecoder(azResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	azResp.Body.Close()
	if !st.Enabled || st.Generation != 1 || st.Promotions != 1 {
		t.Fatalf("/adaptz after promote: %+v", st)
	}

	// Scoring keeps answering 200 against the promoted generation.
	raw := testbundle.Vector(7)
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, raw))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score after promote: status %d: %s", resp.StatusCode, body)
	}

	// One-command rollback restores the base export.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/-/adapt/rollback", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Outcome != adapt.OutcomeRolledBack || res.Generation != 0 {
		t.Fatalf("rollback result %+v", res)
	}
	m = s.reg.Current()
	if m.Gen.Generation != 0 || m.Version != 3 {
		t.Fatalf("after rollback: generation %d version %d, want 0/3", m.Gen.Generation, m.Version)
	}
	// Rolled back to the base export: scores are bit-identical to a fresh
	// load of the original bundle.
	want := testbundle.ExpectedScores(b, raw)
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, raw))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score after rollback: status %d: %s", resp.StatusCode, body)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	testbundle.SameRows(t, sr.Scores, want)
}

// TestReadyzBreakerOpen: an open reload circuit breaker makes the process
// not-ready (orchestrators must not route new models at it) and shows up
// as the serve.reload.breaker_open gauge on /metricsz.
func TestReadyzBreakerOpen(t *testing.T) {
	dir := t.TempDir()
	testbundle.Write(t, dir, 43)
	s := newTestServer(t, dir, func(c *Config) {
		c.Reload = ReloadPolicy{Retries: 2, BaseBackoff: time.Millisecond, TripAfter: 1, Cooldown: time.Hour}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readyz := func() int {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	gauge := func() float64 {
		resp, err := ts.Client().Get(ts.URL + "/metricsz")
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Gauges map[string]float64 `json:"gauges"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return rep.Gauges["serve.reload.breaker_open"]
	}

	if got := readyz(); got != http.StatusOK {
		t.Fatalf("healthy readyz: %d", got)
	}
	if g := gauge(); g != 0 {
		t.Fatalf("closed breaker gauge %v", g)
	}

	// One failed reload call (every retry faults too) trips the breaker
	// (TripAfter=1, hour cooldown).
	restore := faultinject.Enable(&faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
		{Site: "serve.reload", Kind: faultinject.KindError, Every: 1, Err: "disk gone"},
	}})
	defer restore()
	if _, err := s.Reload(); err == nil {
		t.Fatal("injected reload fault did not surface")
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open readyz: %d, want 503", got)
	}
	if g := gauge(); g != 1 {
		t.Fatalf("open breaker gauge %v, want 1", g)
	}
	// Scoring is unaffected: the previous model keeps serving.
	b := s.reg.Current().Bundle
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequestFor(b, testbundle.Vector(9)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score with open breaker: %d: %s", resp.StatusCode, body)
	}
}

// TestConcurrentReloadRacesPromotion is the torn-swap satellite: SIGHUP
// storms (Server.Reload) racing an adapt promotion and its pointer flip.
// Exactly one generation must win, Current() must never be torn or nil,
// and the final state must be the promoted generation — run under -race.
func TestConcurrentReloadRacesPromotion(t *testing.T) {
	dir := t.TempDir()
	testbundle.WriteAdapt(t, dir, testbundle.New(44), 44)
	s := newTestServer(t, dir, func(c *Config) { c.Adapt = testbundle.AdaptPolicy })
	testbundle.FeedAdapter(s.Adapter(), s.reg.Current().Bundle, 12)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// SIGHUP storm: concurrent reload requests throughout the promotion.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = s.Reload()
			}
		}()
	}
	// Reader: the hot path's view must always be a complete model of a
	// real generation (0 before the flip wins, 1 after).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := s.reg.Current()
			if m == nil || m.Bundle == nil || m.Manifest == nil {
				t.Error("torn Current() during promotion race")
				return
			}
			if g := m.Gen.Generation; g != 0 && g != 1 {
				t.Errorf("impossible generation %d during race", g)
				return
			}
		}
	}()

	res := s.Adapter().TryPromote(true)
	close(stop)
	wg.Wait()
	if !res.Promoted || res.Generation != 1 {
		t.Fatalf("promotion under reload storm: %+v", res)
	}
	// The dust settled on exactly one winner: the promoted generation.
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	m := s.reg.Current()
	if m.Gen.Generation != 1 || m.Gen.Fallback {
		t.Fatalf("final state %+v, want generation 1", m.Gen)
	}
	rec, _, err := persist.BundleRoot(dir).Open()
	if err != nil || rec == nil || rec.Generation != 1 {
		t.Fatalf("newest commit record after race: %+v err %v", rec, err)
	}
}
