package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/rng"
	"repro/internal/testbundle"
)

// Metamorphic properties of the scoring API: transformations of a request
// that must not change the decision (TFLLR pre-scaling, lattice
// probability rescaling, batching and batch order).

func scoreOne(t *testing.T, ts *httptest.Server, req ScoreRequest) ScoreResponse {
	t.Helper()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func resultsEqual(t *testing.T, label string, a, b ScoreResult) {
	t.Helper()
	if a.Best != b.Best {
		t.Fatalf("%s: best %q vs %q", label, a.Best, b.Best)
	}
	if len(a.Scores) != len(b.Scores) {
		t.Fatalf("%s: %d vs %d front-ends", label, len(a.Scores), len(b.Scores))
	}
	for fe, row := range a.Scores {
		for k := range row {
			if row[k] != b.Scores[fe][k] {
				t.Fatalf("%s: %s score[%d] = %v vs %v", label, fe, k, row[k], b.Scores[fe][k])
			}
		}
	}
	if len(a.Fused) != len(b.Fused) {
		t.Fatalf("%s: fused %d vs %d entries", label, len(a.Fused), len(b.Fused))
	}
	for k := range a.Fused {
		if a.Fused[k] != b.Fused[k] {
			t.Fatalf("%s: fused[%d] = %v vs %v", label, k, a.Fused[k], b.Fused[k])
		}
	}
}

// TestTFLLRScalingInvariance: sending a raw supervector (the server
// applies the bundle's TFLLR) and sending the same vector pre-scaled with
// Scaled=true must produce bit-identical scores — scaling location must
// not matter.
func TestTFLLRScalingInvariance(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 11)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for trial := uint64(0); trial < 5; trial++ {
		raw := testbundle.Vector(100 + trial)
		rawReq := scoreRequestFor(b, raw)

		preReq := ScoreRequest{ID: "pre", FrontEnds: make(map[string]FrontEndInput)}
		for q := range b.FrontEnds {
			fe := &b.FrontEnds[q]
			v := raw.Clone()
			if fe.TFLLR != nil {
				fe.TFLLR.Apply(v)
			}
			preReq.FrontEnds[fe.Name] = FrontEndInput{
				Supervector: &Supervector{Idx: v.Idx, Val: v.Val, Scaled: true},
			}
		}

		got := scoreOne(t, ts, rawReq)
		want := scoreOne(t, ts, preReq)
		resultsEqual(t, fmt.Sprintf("trial %d", trial), got.ScoreResult, want.ScoreResult)
	}
}

// TestLatticeProbScalingInvariance: sausage slot probabilities are
// globally normalized by the forward–backward pass, so multiplying every
// probability by a constant must leave the scores unchanged (up to float
// rounding) and the decision identical.
func TestLatticeProbScalingInvariance(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 12)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r := rng.New(99)
	slots := make([][]Slot, 6)
	for i := range slots {
		nAlt := 1 + r.Intn(3)
		for a := 0; a < nAlt; a++ {
			slots[i] = append(slots[i], Slot{Phone: r.Intn(testbundle.Phones), Prob: 0.1 + r.Float64()})
		}
	}
	scale := func(c float64) ScoreRequest {
		req := ScoreRequest{FrontEnds: make(map[string]FrontEndInput)}
		scaled := make([][]Slot, len(slots))
		for i, slot := range slots {
			for _, alt := range slot {
				scaled[i] = append(scaled[i], Slot{Phone: alt.Phone, Prob: alt.Prob * c})
			}
		}
		for q := range b.FrontEnds {
			req.FrontEnds[b.FrontEnds[q].Name] = FrontEndInput{Lattice: scaled}
		}
		return req
	}

	base := scoreOne(t, ts, scale(1))
	for _, c := range []float64{3.7, 0.01, 250} {
		got := scoreOne(t, ts, scale(c))
		if got.Best != base.Best {
			t.Fatalf("c=%v: best %q vs %q", c, got.Best, base.Best)
		}
		for fe, row := range base.Scores {
			for k := range row {
				if d := math.Abs(got.Scores[fe][k] - row[k]); d > 1e-9 {
					t.Fatalf("c=%v: %s score[%d] drifted by %v", c, fe, k, d)
				}
			}
		}
		for k := range base.Fused {
			if d := math.Abs(got.Fused[k] - base.Fused[k]); d > 1e-9 {
				t.Fatalf("c=%v: fused[%d] drifted by %v", c, k, d)
			}
		}
	}
}

// TestBatchVsSequentialPermutationInvariance: scoring N utterances one by
// one, as a single batch, and as a permuted batch must give bit-identical
// per-utterance results — batching is a throughput optimization, never a
// semantic one.
func TestBatchVsSequentialPermutationInvariance(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.Write(t, dir, 13)
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 12
	utts := make([]ScoreRequest, n)
	seq := make([]ScoreResult, n)
	for i := range utts {
		utts[i] = scoreRequestFor(b, testbundle.Vector(uint64(500+i)))
		utts[i].ID = fmt.Sprintf("u%02d", i)
		seq[i] = scoreOne(t, ts, utts[i]).ScoreResult
	}

	batch := func(reqs []ScoreRequest) []ScoreResult {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", BatchRequest{Utterances: reqs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, body)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(reqs) {
			t.Fatalf("batch returned %d results for %d utterances", len(br.Results), len(reqs))
		}
		return br.Results
	}

	inOrder := batch(utts)
	for i := range utts {
		resultsEqual(t, "batch-vs-seq "+utts[i].ID, inOrder[i], seq[i])
	}

	perm := rng.New(77).Perm(n)
	permuted := make([]ScoreRequest, n)
	for i, p := range perm {
		permuted[i] = utts[p]
	}
	shuffled := batch(permuted)
	for i, p := range perm {
		if shuffled[i].ID != utts[p].ID {
			t.Fatalf("batch result %d has id %q, want %q (results must align with the request)", i, shuffled[i].ID, utts[p].ID)
		}
		resultsEqual(t, "permuted-batch "+utts[p].ID, shuffled[i], seq[p])
	}
}

// TestPackedKernelMatchesPerModelScoring extends the batch-vs-sequential
// metamorphic property down into the scoring kernel: the served path
// scores the languages four at a time per pass over each vector's
// nonzeros, straight from the row-major weights (svm.ScoresInto; the
// test keeps the name of the packed kernel it replaced), and that kernel
// must be bit-identical to scoring each language model independently.
func TestPackedKernelMatchesPerModelScoring(t *testing.T) {
	b := testbundle.New(31)
	for q := range b.FrontEnds {
		fe := &b.FrontEnds[q]
		for trial := 0; trial < 50; trial++ {
			raw := testbundle.Vector(uint64(900 + trial))
			v := raw.Clone()
			if fe.TFLLR != nil {
				fe.TFLLR.Apply(v)
			}
			got := fe.OVR.Scores(v) // class-grouped kernel
			for k, m := range fe.OVR.Models {
				if want := m.Score(v); got[k] != want {
					t.Fatalf("fe %s trial %d class %d: grouped %v != per-model %v",
						fe.Name, trial, k, got[k], want)
				}
			}
		}
	}
}
