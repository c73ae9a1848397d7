package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cascade"
	"repro/internal/faultinject"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/testbundle"
)

// slotsFor renders a phone string as a single-alternative sausage: the
// server's 1-best decode recovers exactly seq.
func slotsFor(seq []int) [][]Slot {
	slots := make([][]Slot, len(seq))
	for i, ph := range seq {
		slots[i] = []Slot{{Phone: ph, Prob: 1}}
	}
	return slots
}

// latticeRequestFor covers the full battery with the same lattice so the
// fused row is present and the cascade has its designated input.
func latticeRequestFor(b *persist.Bundle, id string, seq []int) ScoreRequest {
	req := ScoreRequest{ID: id, FrontEnds: make(map[string]FrontEndInput)}
	for i := range b.FrontEnds {
		req.FrontEnds[b.FrontEnds[i].Name] = FrontEndInput{Lattice: slotsFor(seq)}
	}
	return req
}

// TestCascadeEscalateAllBitIdentity is the referee for the cascade's
// transparency contract: at threshold −Inf every request escalates, and
// the responses' Scores/Fused/Best must be bit-identical to a server with
// the cascade disabled — single requests, batches, and permuted batches
// alike. The only permitted difference is the cascade outcome annotation.
func TestCascadeEscalateAllBitIdentity(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.WriteCascade(t, dir, 21)

	plain := newTestServer(t, dir, nil)
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	casc := newTestServer(t, dir, func(c *Config) {
		c.Cascade = CascadeConfig{Enabled: true, Margin: "-inf"}
	})
	tsCasc := httptest.NewServer(casc.Handler())
	defer tsCasc.Close()

	r := rng.New(99)
	var seqs [][]int
	for k := 0; k < 6; k++ {
		seqs = append(seqs, testbundle.CascSeq(r, k%testbundle.Langs, 40+r.Intn(30), 0.8))
	}

	sameResult := func(t *testing.T, ctx string, got, want *ScoreResult) {
		t.Helper()
		if got.Best != want.Best {
			t.Fatalf("%s: best %q vs %q", ctx, got.Best, want.Best)
		}
		if len(got.Scores) != len(want.Scores) {
			t.Fatalf("%s: %d score rows vs %d", ctx, len(got.Scores), len(want.Scores))
		}
		for fe, row := range want.Scores {
			for k := range row {
				if got.Scores[fe][k] != row[k] {
					t.Fatalf("%s: %s score[%d] = %v, want %v", ctx, fe, k, got.Scores[fe][k], row[k])
				}
			}
		}
		if len(got.Fused) != len(want.Fused) {
			t.Fatalf("%s: fused %d vs %d", ctx, len(got.Fused), len(want.Fused))
		}
		for k := range want.Fused {
			if got.Fused[k] != want.Fused[k] {
				t.Fatalf("%s: fused[%d] = %v, want %v", ctx, k, got.Fused[k], want.Fused[k])
			}
		}
	}

	// Single requests.
	for i, seq := range seqs {
		req := latticeRequestFor(b, fmt.Sprintf("u%d", i), seq)
		respP, bodyP := postJSON(t, tsPlain.Client(), tsPlain.URL+"/v1/score", req)
		respC, bodyC := postJSON(t, tsCasc.Client(), tsCasc.URL+"/v1/score", req)
		if respP.StatusCode != http.StatusOK || respC.StatusCode != http.StatusOK {
			t.Fatalf("status %d/%d: %s %s", respP.StatusCode, respC.StatusCode, bodyP, bodyC)
		}
		var srP, srC ScoreResponse
		if err := json.Unmarshal(bodyP, &srP); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bodyC, &srC); err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("single %d", i), &srC.ScoreResult, &srP.ScoreResult)
		if srP.Cascade != nil {
			t.Fatal("cascade outcome on a cascade-disabled server")
		}
		if srC.Cascade == nil || srC.Cascade.Exited || srC.Cascade.Reason != cascade.ReasonLowMargin {
			t.Fatalf("escalate-all outcome: %+v", srC.Cascade)
		}
	}

	// Batch, then the same batch permuted: results must align per
	// utterance and match the plain server's bit for bit.
	batchOf := func(order []int) BatchRequest {
		var br BatchRequest
		for _, i := range order {
			br.Utterances = append(br.Utterances, latticeRequestFor(b, fmt.Sprintf("u%d", i), seqs[i]))
		}
		return br
	}
	orders := [][]int{{0, 1, 2, 3, 4, 5}, {5, 3, 1, 4, 0, 2}}
	var base map[string]ScoreResult
	for oi, order := range orders {
		req := batchOf(order)
		respP, bodyP := postJSON(t, tsPlain.Client(), tsPlain.URL+"/v1/score/batch", req)
		respC, bodyC := postJSON(t, tsCasc.Client(), tsCasc.URL+"/v1/score/batch", req)
		if respP.StatusCode != http.StatusOK || respC.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d/%d", respP.StatusCode, respC.StatusCode)
		}
		var brP, brC BatchResponse
		if err := json.Unmarshal(bodyP, &brP); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bodyC, &brC); err != nil {
			t.Fatal(err)
		}
		for i := range brP.Results {
			sameResult(t, fmt.Sprintf("batch order %d utt %d", oi, i), &brC.Results[i], &brP.Results[i])
		}
		if oi == 0 {
			base = make(map[string]ScoreResult)
			for _, res := range brC.Results {
				base[res.ID] = res
			}
		} else {
			for _, res := range brC.Results {
				want := base[res.ID]
				sameResult(t, "permuted vs original "+res.ID, &res, &want)
			}
		}
	}
}

// TestCascadeAllTier1AtPlusInf: threshold +Inf answers everything at tier
// 1 — no front-end battery runs, the fused row is the calibrated tier-1
// decision row, and Best matches the model's own Decide.
func TestCascadeAllTier1AtPlusInf(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.WriteCascade(t, dir, 22)
	s := newTestServer(t, dir, func(c *Config) {
		c.Cascade = CascadeConfig{Enabled: true, Margin: "+inf"}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r := rng.New(5)
	for k := 0; k < testbundle.Langs; k++ {
		// Even a deliberately confusable sequence exits at +Inf.
		for _, bias := range []float64{0.8, 0.34} {
			seq := testbundle.CascSeq(r, k, 30, bias)
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", latticeRequestFor(b, "x", seq))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var sr ScoreResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Cascade == nil || !sr.Cascade.Exited || sr.Cascade.Reason != cascade.ReasonHighMargin {
				t.Fatalf("outcome: %+v", sr.Cascade)
			}
			if len(sr.Scores) != 0 {
				t.Fatal("front-end scores on a tier-1 exit")
			}
			want := b.Cascade.Decide(seq, math.Inf(1))
			if sr.Best != b.Languages[want.Best] {
				t.Fatalf("best %q, want %q", sr.Best, b.Languages[want.Best])
			}
			for k2 := range want.Scores {
				if sr.Fused[k2] != want.Scores[k2] {
					t.Fatalf("fused[%d] = %v, want tier-1 %v", k2, sr.Fused[k2], want.Scores[k2])
				}
			}
		}
	}
}

// TestCascadeExitMonotoneInThreshold: the set of requests that exit at
// tier 1 only grows as the threshold offset grows (−Inf ⊆ calibrated ⊆
// +Inf), request by request.
func TestCascadeExitMonotoneInThreshold(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.WriteCascade(t, dir, 23)

	margins := []string{"-inf", "-0.1", "0", "0.2", "+inf"}
	exits := make([]map[string]bool, len(margins))
	r := rng.New(77)
	var reqs []ScoreRequest
	for i := 0; i < 12; i++ {
		bias := 0.8
		if i%2 == 1 {
			bias = 0.34
		}
		reqs = append(reqs, latticeRequestFor(b, fmt.Sprintf("u%d", i), testbundle.CascSeq(r, i%testbundle.Langs, 20+3*i, bias)))
	}
	for mi, margin := range margins {
		s := newTestServer(t, dir, func(c *Config) {
			c.Cascade = CascadeConfig{Enabled: true, Margin: margin}
		})
		ts := httptest.NewServer(s.Handler())
		exits[mi] = make(map[string]bool)
		for _, req := range reqs {
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("margin %s: status %d: %s", margin, resp.StatusCode, body)
			}
			var sr ScoreResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			exits[mi][req.ID] = sr.Cascade != nil && sr.Cascade.Exited
		}
		ts.Close()
	}
	for _, id := range []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9", "u10", "u11"} {
		if exits[0][id] {
			t.Fatalf("%s exited at -inf", id)
		}
		if !exits[len(margins)-1][id] {
			t.Fatalf("%s escalated at +inf", id)
		}
		for mi := 1; mi < len(margins); mi++ {
			if exits[mi-1][id] && !exits[mi][id] {
				t.Fatalf("%s exited at %s but escalated at %s", id, margins[mi-1], margins[mi])
			}
		}
	}
}

// TestCascadeTier1FaultDegradesToEscalation is the chaos gate for the new
// cascade.tier1 site: injected errors and panics in tier 1 must degrade
// to a transparent escalation — 200 with full heavy-path scores, reason
// tier1_fault, the failure counter bumped — and never surface as a 5xx.
func TestCascadeTier1FaultDegradesToEscalation(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.WriteCascade(t, dir, 24)
	s := newTestServer(t, dir, func(c *Config) {
		c.Cascade = CascadeConfig{Enabled: true, Margin: "+inf"}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r := rng.New(31)
	seq := testbundle.CascSeq(r, 1, 40, 0.8)
	req := latticeRequestFor(b, "chaos", seq)

	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic} {
		t.Run(kind.String(), func(t *testing.T) {
			defer faultinject.Enable(&faultinject.Plan{
				Seed:  7,
				Rules: []faultinject.Rule{{Site: "cascade.tier1", Kind: kind, Every: 1}},
			})()
			before := s.casc.failed.c.Value()
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("tier-1 %s fault surfaced as %d: %s", kind, resp.StatusCode, body)
			}
			var sr ScoreResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Cascade == nil || sr.Cascade.Exited || sr.Cascade.Reason != ReasonTier1Fault {
				t.Fatalf("outcome: %+v", sr.Cascade)
			}
			// The heavy path served the request in full.
			if len(sr.Scores) != len(b.FrontEnds) || len(sr.Fused) != testbundle.Langs || sr.Degraded {
				t.Fatalf("escalated result incomplete: %d rows, %d fused, degraded=%v",
					len(sr.Scores), len(sr.Fused), sr.Degraded)
			}
			if s.casc.failed.c.Value() != before+1 {
				t.Fatalf("tier1.failed went %d -> %d, want +1", before, s.casc.failed.c.Value())
			}
			st := faultinject.Snapshot()["cascade.tier1"]
			if st.Fires == 0 {
				t.Fatal("cascade.tier1 never fired")
			}
		})
	}
}

// TestCascadeEscalationReasons: requests tier 1 cannot score carry the
// serve-layer reason codes — supervector-only input and cascade-less
// bundles both escalate transparently.
func TestCascadeEscalationReasons(t *testing.T) {
	t.Run("no_tier1_input", func(t *testing.T) {
		dir := t.TempDir()
		b := testbundle.WriteCascade(t, dir, 25)
		s := newTestServer(t, dir, func(c *Config) {
			c.Cascade = CascadeConfig{Enabled: true, Margin: "+inf"}
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		// Full battery by supervector: no lattice for FE0 → no 1-best.
		req := scoreRequestFor(b, testbundle.Vector(9))
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var sr ScoreResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Cascade == nil || sr.Cascade.Exited || sr.Cascade.Reason != ReasonNoTier1Input {
			t.Fatalf("outcome: %+v", sr.Cascade)
		}
		if len(sr.Scores) != len(b.FrontEnds) {
			t.Fatal("heavy path did not serve the escalation")
		}
	})
	t.Run("no_cascade_model", func(t *testing.T) {
		dir := t.TempDir()
		b := testbundle.Write(t, dir, 26) // legacy bundle, no cascade
		s := newTestServer(t, dir, func(c *Config) {
			c.Cascade = CascadeConfig{Enabled: true, Margin: "+inf"}
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		req := latticeRequestFor(b, "x", []int{0, 1, 2, 3})
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var sr ScoreResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Cascade == nil || sr.Cascade.Exited || sr.Cascade.Reason != ReasonNoCascadeModel {
			t.Fatalf("outcome: %+v", sr.Cascade)
		}
	})
}

// TestCascadeBadMarginRejectedAtStartup: a malformed policy spec fails
// New, not the first request.
func TestCascadeBadMarginRejectedAtStartup(t *testing.T) {
	dir := t.TempDir()
	testbundle.WriteCascade(t, dir, 27)
	_, err := New(Config{
		ModelDir: dir,
		Cascade:  CascadeConfig{Enabled: true, Margin: "30s=nan"},
	})
	if err == nil {
		t.Fatal("New accepted a NaN cascade margin")
	}
}
