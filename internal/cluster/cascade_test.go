package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/testbundle"
)

// latticeRequestFor covers the full battery with the same
// single-alternative sausage, so the fused row is present and the
// cascade has its designated 1-best input.
func latticeRequestFor(b *persist.Bundle, id string, seq []int) serve.ScoreRequest {
	slots := make([][]serve.Slot, len(seq))
	for i, ph := range seq {
		slots[i] = []serve.Slot{{Phone: ph, Prob: 1}}
	}
	req := serve.ScoreRequest{ID: id, FrontEnds: make(map[string]serve.FrontEndInput)}
	for i := range b.FrontEnds {
		req.FrontEnds[b.FrontEnds[i].Name] = serve.FrontEndInput{Lattice: slots}
	}
	return req
}

func sameScoreResult(t *testing.T, ctx string, got, want *serve.ScoreResult) {
	t.Helper()
	if got.Best != want.Best {
		t.Fatalf("%s: best %q vs %q", ctx, got.Best, want.Best)
	}
	testbundle.SameRows(t, got.Scores, want.Scores)
	if len(got.Fused) != len(want.Fused) {
		t.Fatalf("%s: fused %d vs %d", ctx, len(got.Fused), len(want.Fused))
	}
	for k := range want.Fused {
		if got.Fused[k] != want.Fused[k] {
			t.Fatalf("%s: fused[%d] = %v, want %v (not bit-identical)", ctx, k, got.Fused[k], want.Fused[k])
		}
	}
}

// TestFleetCascadeEscalateAllBitIdentity is the fleet leg of the cascade
// transparency referee: a coordinator running the cascade at threshold
// −Inf must answer byte-identically (Best/Scores/Fused) to the
// standalone daemon over the same bundle directory — every utterance
// escalates into the ordinary scatter–gather, and the only permitted
// difference is the escalation annotation.
func TestFleetCascadeEscalateAllBitIdentity(t *testing.T) {
	f := newFleetBundle(t, 2, testbundle.WriteCascade, func(cfg *CoordinatorConfig) {
		cfg.Cascade = serve.CascadeConfig{Enabled: true, Margin: "-inf"}
	})
	mustDistribute(t, f)
	s, err := serve.New(serve.Config{ModelDir: f.dir, BatchWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	r := rng.New(99)
	var seqs [][]int
	for k := 0; k < 4; k++ {
		seqs = append(seqs, testbundle.CascSeq(r, k%testbundle.Langs, 40+r.Intn(30), 0.8))
	}

	// Single requests.
	for i, seq := range seqs {
		req := latticeRequestFor(f.bundle, fmt.Sprintf("u%d", i), seq)
		rec, fr := f.score(t, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("fleet status %d: %s", rec.Code, rec.Body.String())
		}
		recS, bodyS := postJSON(t, s.Handler(), "/v1/score", req)
		if recS.Code != http.StatusOK {
			t.Fatalf("standalone status %d: %s", recS.Code, bodyS)
		}
		var sr serve.ScoreResponse
		if err := json.Unmarshal(bodyS, &sr); err != nil {
			t.Fatal(err)
		}
		sameScoreResult(t, fmt.Sprintf("single %d", i), &fr.ScoreResult, &sr.ScoreResult)
		if fr.Cascade == nil || fr.Cascade.Exited || fr.Cascade.Reason != cascade.ReasonLowMargin {
			t.Fatalf("escalate-all outcome: %+v", fr.Cascade)
		}
	}

	// The same utterances as one batch.
	var br serve.BatchRequest
	for i, seq := range seqs {
		br.Utterances = append(br.Utterances, latticeRequestFor(f.bundle, fmt.Sprintf("u%d", i), seq))
	}
	recF, bodyF := postJSON(t, f.coord.Handler(), "/v1/score/batch", br)
	recS, bodyS := postJSON(t, s.Handler(), "/v1/score/batch", br)
	if recF.Code != http.StatusOK || recS.Code != http.StatusOK {
		t.Fatalf("batch status %d/%d", recF.Code, recS.Code)
	}
	var brF, brS serve.BatchResponse
	if err := json.Unmarshal(bodyF, &brF); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyS, &brS); err != nil {
		t.Fatal(err)
	}
	if len(brF.Results) != len(brS.Results) {
		t.Fatalf("batch sizes %d vs %d", len(brF.Results), len(brS.Results))
	}
	for i := range brS.Results {
		sameScoreResult(t, fmt.Sprintf("batch utt %d", i), &brF.Results[i], &brS.Results[i])
		if brF.Results[i].Cascade == nil || brF.Results[i].Cascade.Exited {
			t.Fatalf("batch utt %d outcome: %+v", i, brF.Results[i].Cascade)
		}
	}
}

// TestFleetCascadeExitSkipsShards: at +Inf every lattice request exits
// at tier 1 on the coordinator — proven the hard way, with every worker
// down: the exit still answers 200 with the tier-1 decision row (zero
// shard RPCs), while a supervector request (no tier-1 input) must fan
// out and collapses to the all-shards-failed 503. The shard split also
// strips the cascade model, like fusion: tier 1 is coordinator-only.
func TestFleetCascadeExitSkipsShards(t *testing.T) {
	f := newFleetBundle(t, 2, testbundle.WriteCascade, func(cfg *CoordinatorConfig) {
		cfg.Cascade = serve.CascadeConfig{Enabled: true, Margin: "+inf"}
	})
	mustDistribute(t, f)
	for i, w := range f.workers {
		m := w.Server().Registry().Current()
		if m.Bundle.Cascade != nil || m.Manifest.Cascade != "" {
			t.Fatalf("worker %d shard bundle carries a cascade model", i)
		}
	}
	for _, h := range f.hosts {
		f.net.setDown(h, true)
	}

	seq := testbundle.CascSeq(rng.New(3), 1, 40, 0.8)
	rec, sr := f.score(t, latticeRequestFor(f.bundle, "x", seq))
	if rec.Code != http.StatusOK {
		t.Fatalf("tier-1 exit needed a shard: status %d: %s", rec.Code, rec.Body.String())
	}
	if sr.Cascade == nil || !sr.Cascade.Exited || sr.Cascade.Reason != cascade.ReasonHighMargin {
		t.Fatalf("outcome: %+v", sr.Cascade)
	}
	if len(sr.Scores) != 0 {
		t.Fatal("front-end score rows on a tier-1 exit")
	}
	want := f.bundle.Cascade.Decide(seq, math.Inf(1))
	if sr.Best != f.bundle.Languages[want.Best] {
		t.Fatalf("best %q, want %q", sr.Best, f.bundle.Languages[want.Best])
	}
	for k := range want.Scores {
		if sr.Fused[k] != want.Scores[k] {
			t.Fatalf("fused[%d] = %v, want tier-1 %v", k, sr.Fused[k], want.Scores[k])
		}
	}

	rec2, _ := f.score(t, scoreRequestFor(f.bundle, testbundle.Vector(4)))
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("supervector request with all shards down: status %d, want 503", rec2.Code)
	}
}

// TestFleetCascadeBadMarginRejectedAtStartup: a malformed policy spec
// fails NewCoordinator, not the first request.
func TestFleetCascadeBadMarginRejectedAtStartup(t *testing.T) {
	dir := t.TempDir()
	testbundle.WriteCascade(t, dir, 1)
	_, err := NewCoordinator(CoordinatorConfig{
		ModelDir: dir,
		Peers:    []string{"w0.test:9101"},
		Cascade:  serve.CascadeConfig{Enabled: true, Margin: "30s=nan"},
	})
	if err == nil {
		t.Fatal("NewCoordinator accepted a NaN cascade margin")
	}
}
