package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/testbundle"
)

// standaloneResponse scores the same request on a plain internal/serve
// server over the same bundle directory — the bit-identity oracle.
func standaloneResponse(t *testing.T, modelDir string, req serve.ScoreRequest) serve.ScoreResponse {
	t.Helper()
	s, err := serve.New(serve.Config{ModelDir: modelDir, BatchWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec, body := postJSON(t, s.Handler(), "/v1/score", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("standalone status %d: %s", rec.Code, body)
	}
	var sr serve.ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func TestFleetBitIdenticalToStandalone(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)

	req := scoreRequestFor(f.bundle, testbundle.Vector(7))
	want := testbundle.ExpectedScores(f.bundle, testbundle.Vector(7))

	rec, sr := f.score(t, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if sr.Degraded {
		t.Fatalf("healthy fleet degraded: %+v", sr.ScoreResult)
	}
	testbundle.SameRows(t, sr.Scores, want)

	// The full scoring payload — scores, fused row, decision — must be
	// byte-for-byte what the standalone daemon serves from the same
	// bundle (JSON float64 marshaling is shortest-round-trip exact, so a
	// marshal-level comparison is a bit-level comparison).
	std := standaloneResponse(t, f.coord.cfg.ModelDir, req)
	if !reflect.DeepEqual(sr.ScoreResult, std.ScoreResult) {
		t.Fatalf("fleet result differs from standalone:\nfleet      %+v\nstandalone %+v", sr.ScoreResult, std.ScoreResult)
	}
	if sr.ModelVersion != std.ModelVersion {
		t.Fatalf("model version %d vs standalone %d", sr.ModelVersion, std.ModelVersion)
	}
	if len(sr.Fused) == 0 {
		t.Fatal("full-battery request must carry the fused row")
	}
	if sr.ClusterGeneration != 1 {
		t.Fatalf("cluster generation %d, want 1", sr.ClusterGeneration)
	}
	if std.ClusterGeneration != 0 {
		t.Fatalf("standalone response leaked a cluster generation: %d", std.ClusterGeneration)
	}
}

func TestFleetRejectsBeforeDistribution(t *testing.T) {
	f := newFleet(t, 2, nil)
	req := scoreRequestFor(f.bundle, testbundle.Vector(3))
	rec, _ := f.score(t, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("score before distribution: status %d, want 503", rec.Code)
	}
	r := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w := httptest.NewRecorder()
	f.coord.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before distribution: status %d, want 503", w.Code)
	}

	mustDistribute(t, f)
	rec, sr := f.score(t, req)
	if rec.Code != http.StatusOK || sr.Degraded {
		t.Fatalf("after distribution: status %d degraded=%v", rec.Code, sr.Degraded)
	}
	w = httptest.NewRecorder()
	f.coord.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("readyz after distribution: status %d", w.Code)
	}
}

func TestFleetUnknownFrontEndIs400(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	req := scoreRequestFor(f.bundle, testbundle.Vector(4))
	req.FrontEnds["nope"] = req.FrontEnds["FE0"]
	rec, _ := f.score(t, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown front-end: status %d, want 400", rec.Code)
	}
}

func TestKillWorkerDegradesWithSurvivorFusion(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	raw := testbundle.Vector(9)
	req := scoreRequestFor(f.bundle, raw)

	// Kill the worker owning FE1 (round-robin: FE0→shard0, FE1→shard1).
	f.net.setDown(f.hosts[1], true)
	rec, sr := f.score(t, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded request must stay 2xx, got %d: %s", rec.Code, rec.Body.String())
	}
	if !sr.Degraded {
		t.Fatal("response must be marked degraded")
	}
	if !reflect.DeepEqual(sr.Surviving, []string{"FE0"}) {
		t.Fatalf("surviving = %v, want [FE0]", sr.Surviving)
	}
	if msg := sr.FrontEndErrors["FE1"]; !strings.Contains(msg, "shard "+f.hosts[1]) {
		t.Fatalf("FE1 error %q must name the dead shard", msg)
	}

	// The fused row must be exactly fusion.ScoreMasked over the
	// survivors — the documented degraded-fusion contract, now across a
	// process boundary.
	want := testbundle.ExpectedScores(f.bundle, raw)
	survivor := map[string][]float64{"FE0": want["FE0"]}
	testbundle.SameRows(t, sr.Scores, survivor)
	if mf := testbundle.MaskedFused(f.bundle, survivor); !reflect.DeepEqual(sr.Fused, mf) {
		t.Fatalf("fused = %v, want ScoreMasked %v", sr.Fused, mf)
	}

	// Both workers dead: nothing survives — that is a 503, not a
	// fabricated answer.
	f.net.setDown(f.hosts[0], true)
	rec, _ = f.score(t, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all shards dead: status %d, want 503", rec.Code)
	}

	// Worker revives: scoring returns to exact (breaker never tripped —
	// only one failure per peer so far... the second peer has two).
	f.net.setDown(f.hosts[0], false)
	f.net.setDown(f.hosts[1], false)
	rec, sr = f.score(t, req)
	if rec.Code != http.StatusOK || sr.Degraded {
		t.Fatalf("revived fleet: status %d degraded=%v (%s)", rec.Code, sr.Degraded, rec.Body.String())
	}
	testbundle.SameRows(t, sr.Scores, want)
}

func TestBatchDegradationStaysPerUtterance(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	raw := testbundle.Vector(11)
	full := scoreRequestFor(f.bundle, raw) // FE0 + FE1
	only0 := serve.ScoreRequest{ID: "only-fe0", FrontEnds: map[string]serve.FrontEndInput{
		"FE0": full.FrontEnds["FE0"],
	}}
	full.ID = "full"
	batch := serve.BatchRequest{Utterances: []serve.ScoreRequest{full, only0}}

	f.net.setDown(f.hosts[1], true) // FE1's shard dies
	rec, body := postJSON(t, f.coord.Handler(), "/v1/score/batch", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("%d results, want 2", len(br.Results))
	}
	// The full-battery utterance lost FE1 and degrades; its batch-mate
	// never touched the dead shard and must come back clean — one
	// utterance's loss does not smear its batch-mates.
	if !br.Results[0].Degraded {
		t.Fatalf("utterance %q must degrade: %+v", br.Results[0].ID, br.Results[0])
	}
	if !reflect.DeepEqual(br.Results[0].Surviving, []string{"FE0"}) {
		t.Fatalf("utterance %q surviving = %v, want [FE0]", br.Results[0].ID, br.Results[0].Surviving)
	}
	if br.Results[1].Degraded || br.Results[1].Error != "" {
		t.Fatalf("utterance %q must not degrade: %+v", br.Results[1].ID, br.Results[1])
	}
	want := testbundle.ExpectedScores(f.bundle, raw)
	testbundle.SameRows(t, br.Results[1].Scores, map[string][]float64{"FE0": want["FE0"]})
	if !br.Degraded || br.DegradedCount != 1 {
		t.Fatalf("batch summary degraded=%v count=%d, want true/1", br.Degraded, br.DegradedCount)
	}
}

func TestGenerationConsistencyAcrossFailedRedistribution(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	raw := testbundle.Vector(13)
	req := scoreRequestFor(f.bundle, raw)

	// A new bundle lands on disk, but worker 1 is down when the reload
	// tries to distribute it: worker 0 installs generation 2, the fleet
	// plan must stay pinned at generation 1.
	testbundle.Write(t, f.coord.cfg.ModelDir, 2)
	f.net.setDown(f.hosts[1], true)
	if _, err := f.coord.Reload(context.Background()); err == nil {
		t.Fatal("reload with a dead worker must fail distribution")
	}
	if gen := f.coord.Plan(); gen != 1 {
		t.Fatalf("plan advanced to %d despite failed distribution", gen)
	}
	f.net.setDown(f.hosts[1], false)

	// Scoring now: worker 0 serves generation 2 and must 409 the
	// generation-1-routed shard RPC; worker 1 still serves generation 1.
	// The response is degraded — never a fusion of mixed generations.
	rec, sr := f.score(t, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !sr.Degraded {
		t.Fatal("mixed-generation fleet must degrade, not mix")
	}
	if !reflect.DeepEqual(sr.Surviving, []string{"FE1"}) {
		t.Fatalf("surviving = %v, want [FE1] (the generation-1 shard)", sr.Surviving)
	}
	if sr.ModelVersion != 1 || sr.ClusterGeneration != 1 {
		t.Fatalf("response v%d gen%d, want the pinned v1 gen1", sr.ModelVersion, sr.ClusterGeneration)
	}
	want1 := testbundle.ExpectedScores(f.bundle, raw)
	testbundle.SameRows(t, sr.Scores, map[string][]float64{"FE1": want1["FE1"]})

	// The repair loop walks worker 0 back onto the active plan (its
	// pinned generation-1 model — not the undistributed on-disk bundle).
	f.coord.repair(context.Background())
	rec, sr = f.score(t, req)
	if rec.Code != http.StatusOK || sr.Degraded {
		t.Fatalf("after repair: status %d degraded=%v (%s)", rec.Code, sr.Degraded, rec.Body.String())
	}
	testbundle.SameRows(t, sr.Scores, want1)

	// With both workers reachable the redistribution completes and the
	// fleet advances atomically. Generations are monotone registry
	// versions, not content hashes: the failed reload above already
	// consumed version 2, so the fleet lands on 3.
	if _, err := f.coord.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	gen := f.coord.Plan()
	if gen != 3 {
		t.Fatalf("plan at %d after successful reload, want 3", gen)
	}
	b2 := testbundle.New(2)
	rec, sr = f.score(t, req)
	if rec.Code != http.StatusOK || sr.Degraded {
		t.Fatalf("new generation: status %d degraded=%v", rec.Code, sr.Degraded)
	}
	if sr.ModelVersion != gen || sr.ClusterGeneration != gen {
		t.Fatalf("response v%d gen%d, want v%d gen%d", sr.ModelVersion, sr.ClusterGeneration, gen, gen)
	}
	testbundle.SameRows(t, sr.Scores, testbundle.ExpectedScores(b2, raw))
}

func TestWorkerRestartRepushedByRepair(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	raw := testbundle.Vector(17)
	req := scoreRequestFor(f.bundle, raw)

	// Worker 0 is replaced by a fresh process with an empty spool (lost
	// its disk). Until repair runs, its shard degrades…
	f.restartWorker(t, 0)
	rec, sr := f.score(t, req)
	if rec.Code != http.StatusOK || !sr.Degraded {
		t.Fatalf("restarted-empty shard: status %d degraded=%v", rec.Code, sr.Degraded)
	}

	// …then the repair tick notices the generation-0 worker and re-pushes
	// the active shard bundle.
	f.coord.repair(context.Background())
	if st := f.peerStatus(t, f.hosts[0]); st.Generation != 1 {
		t.Fatalf("peer generation %d after repair, want 1", st.Generation)
	}
	rec, sr = f.score(t, req)
	if rec.Code != http.StatusOK || sr.Degraded {
		t.Fatalf("after re-push: status %d degraded=%v (%s)", rec.Code, sr.Degraded, rec.Body.String())
	}
	testbundle.SameRows(t, sr.Scores, testbundle.ExpectedScores(f.bundle, raw))
}

func TestTraceparentPropagatesToShards(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	req := scoreRequestFor(f.bundle, testbundle.Vector(19))
	data, _ := json.Marshal(req)

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	r := httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(string(data)))
	r.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	w := httptest.NewRecorder()
	f.coord.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var sr serve.ScoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.TraceID != traceID {
		t.Fatalf("trace id %q, want the caller's %q", sr.TraceID, traceID)
	}

	// The coordinator's /tracez shows the root with rpc.shard children…
	rec := httptest.NewRecorder()
	f.coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tracez", nil))
	if body := rec.Body.String(); !strings.Contains(body, traceID) || !strings.Contains(body, "rpc.shard") {
		t.Fatalf("coordinator /tracez missing the trace or its rpc.shard spans: %s", body)
	}
	// …and each worker filed its own span tree under the same trace id —
	// the cross-process subtree /tracez stitches by trace id.
	for i, wk := range f.workers {
		rec := httptest.NewRecorder()
		wk.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tracez", nil))
		if !strings.Contains(rec.Body.String(), traceID) {
			t.Fatalf("worker %d /tracez missing trace %s: %s", i, traceID, rec.Body.String())
		}
	}
}

func TestDistributionStampsShardManifests(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	for i, w := range f.workers {
		m := w.Server().Registry().Current()
		if m == nil {
			t.Fatalf("worker %d has no model after distribution", i)
		}
		if m.ClusterGeneration() != 1 {
			t.Fatalf("worker %d generation %d, want 1", i, m.ClusterGeneration())
		}
		if m.Manifest.ShardOf == "" {
			t.Fatalf("worker %d shard manifest missing the parent bundle hash", i)
		}
		if m.Bundle.Fusion != nil {
			t.Fatalf("worker %d shard bundle carries a fusion backend — fusion is coordinator-only", i)
		}
		if len(m.Bundle.FrontEnds) != 1 {
			t.Fatalf("worker %d loaded %d front-ends, want its 1 assigned shard", i, len(m.Bundle.FrontEnds))
		}
	}
	// Worker without the routing header still serves (ops curl paths).
	req := scoreRequestFor(f.bundle, testbundle.Vector(23))
	sub := serve.ScoreRequest{ID: "direct", FrontEnds: map[string]serve.FrontEndInput{
		"FE0": req.FrontEnds["FE0"],
	}}
	rec, body := postJSON(t, f.workers[0].Handler(), "/v1/score", sub)
	if rec.Code != http.StatusOK {
		t.Fatalf("headerless worker request: status %d: %s", rec.Code, body)
	}
}
