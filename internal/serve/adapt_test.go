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
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/testbundle"
)

// adaptTestPolicy is permissive on every gate: these tests exercise the
// serving-layer wiring (endpoints, hot swap, readiness), not the gate
// thresholds — internal/adapt's own suite covers those.
const adaptTestPolicy = "cadence=1h;probe=1h;votes=1;min-utts=1;buffer=64;" +
	"shadow-rate=1;shadow-bound=1e6;eer-budget=100;canary-tol=1e6;keep=4"

// writeAdaptBundle exports the serve fixture bundle plus a matching adapt
// sidecar, the layout `lre -export-models` produces.
func writeAdaptBundle(t *testing.T, dir string, seed uint64) *persist.Bundle {
	t.Helper()
	b := testbundle.New(seed)
	const (
		nTrain   = 18
		nHoldout = 12
	)
	set := &adapt.Set{
		FormatVersion: adapt.SetFormatVersion,
		Languages:     append([]string(nil), b.Languages...),
		SVM:           svm.DefaultOptions(),
		Seed:          seed,
	}
	set.SVM.Seed = seed
	for i := 0; i < nTrain; i++ {
		set.TrainLabels = append(set.TrainLabels, i%testbundle.Langs)
	}
	for i := 0; i < nHoldout; i++ {
		set.HoldoutLabels = append(set.HoldoutLabels, i%testbundle.Langs)
	}
	for q := range b.FrontEnds {
		fe := &b.FrontEnds[q]
		// Sidecar vectors live in the front-end's weight space: raw
		// fixture vectors with the bundle's own TFLLR applied.
		weightSpace := func(n int, salt uint64) []*sparse.Vector {
			out := make([]*sparse.Vector, n)
			for i := range out {
				v := testbundle.Vector(seed + salt + uint64(i)*17).Clone()
				if fe.TFLLR != nil {
					fe.TFLLR.Apply(v)
				}
				out[i] = v
			}
			return out
		}
		sfe := adapt.SetFrontEnd{
			Name:    fe.Name,
			Dim:     fe.WeightDim(),
			Train:   weightSpace(nTrain, 1000),
			Holdout: weightSpace(nHoldout, 5000),
		}
		for j := 0; j < nHoldout; j++ {
			sfe.RefereeScores = append(sfe.RefereeScores, fe.Scores(sfe.Holdout[j]))
		}
		set.FrontEnds = append(set.FrontEnds, sfe)
	}
	if err := adapt.SaveSet(dir, set); err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveBundle(dir, b, persist.Manifest{Seed: seed, Scale: "test", AdaptFile: adapt.SetFile}); err != nil {
		t.Fatal(err)
	}
	return b
}

// feedAdapter offers n full-battery observations with forged served rows
// (one small positive, rest negative — an unambiguous Eq. 13 vote that
// does not saturate the fused scale).
func feedAdapter(s *Server, n int) {
	a := s.Adapter()
	m := s.reg.Current()
	for j := 0; j < n; j++ {
		k := j % testbundle.Langs
		vectors := make(map[int]*sparse.Vector)
		scores := make(map[int][]float64)
		for q := range m.Bundle.FrontEnds {
			fe := &m.Bundle.FrontEnds[q]
			v := testbundle.Vector(900 + uint64(j)*31).Clone()
			if fe.TFLLR != nil {
				fe.TFLLR.Apply(v)
			}
			vectors[q] = v
			row := make([]float64, testbundle.Langs)
			for i := range row {
				row[i] = -0.25
			}
			row[k] = 0.25
			scores[q] = row
		}
		a.Observe(vectors, scores)
	}
}

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
	b := writeAdaptBundle(t, dir, 42)
	s := newTestServer(t, dir, func(c *Config) { c.Adapt = adaptTestPolicy })
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
	feedAdapter(s, 12)
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
		c.Reload = ReloadPolicy{BaseBackoff: time.Millisecond, TripAfter: 1, Cooldown: time.Hour}
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
	writeAdaptBundle(t, dir, 44)
	s := newTestServer(t, dir, func(c *Config) { c.Adapt = adaptTestPolicy })
	feedAdapter(s, 12)

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

	res, err := s.Adapter().TryPromote(true)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
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
