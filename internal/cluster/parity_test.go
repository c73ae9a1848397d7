package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/internal/testbundle"
)

// TestFleetStandaloneEdgeParity: the coordinator serves the standalone
// scoring API, edge cases included. The same malformed, partial and
// admin requests go to a standalone server and to a coordinator over the
// same bundle, and both must answer with the same status and the same
// error shape.
func TestFleetStandaloneEdgeParity(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	s, err := serve.New(serve.Config{ModelDir: f.dir})
	if err != nil {
		t.Fatal(err)
	}

	good := scoreRequestFor(f.bundle, testbundle.Vector(5))
	unknown := serve.ScoreRequest{ID: "unknown", FrontEnds: map[string]serve.FrontEndInput{
		"nope": good.FrontEnds["FE0"],
	}}
	mixed, err := json.Marshal(serve.BatchRequest{Utterances: []serve.ScoreRequest{good, unknown, good}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, method, path, body string }{
		{"good + unknown-FE batch", http.MethodPost, "/v1/score/batch", string(mixed)},
		{"non-POST score", http.MethodGet, "/v1/score", ""},
		{"junk JSON", http.MethodPost, "/v1/score", "{not json"},
		{"empty frontends", http.MethodPost, "/v1/score", `{"frontends":{}}`},
		{"empty batch", http.MethodPost, "/v1/score/batch", `{"utterances":[]}`},
		{"junk metrics format", http.MethodGet, "/metricsz?format=junk", ""},
		{"GET reload", http.MethodGet, "/-/reload", ""},
	}
	for _, tc := range cases {
		want := edgeShape(s.Handler(), tc.method, tc.path, tc.body)
		got := edgeShape(f.coord.Handler(), tc.method, tc.path, tc.body)
		if got != want {
			t.Errorf("%s: coordinator answers %q, standalone %q", tc.name, got, want)
		}
	}
}

// edgeShape serves one request and reduces the reply to what the parity
// check compares: the status, whether the body is a bare
// {"error": "<message>"} object, and which batch results carry a
// per-utterance error.
func edgeShape(h http.Handler, method, path, body string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	shape := fmt.Sprintf("status %d", rec.Code)
	var top map[string]json.RawMessage
	if json.Unmarshal(rec.Body.Bytes(), &top) != nil {
		return shape + " non-object body"
	}
	if raw, ok := top["error"]; ok {
		var msg string
		if json.Unmarshal(raw, &msg) != nil || msg == "" || len(top) != 1 {
			return shape + " malformed error body"
		}
		shape += " error"
	}
	if raw, ok := top["results"]; ok {
		var results []map[string]json.RawMessage
		if json.Unmarshal(raw, &results) != nil {
			return shape + " malformed results"
		}
		shape += " results"
		for _, r := range results {
			if _, ok := r["error"]; ok {
				shape += " error"
			} else {
				shape += " ok"
			}
		}
	}
	return shape
}

// TestDistributeWhileIntrospecting redistributes while /metricsz and
// /clusterz are read concurrently. Each peer's front-end list belongs to
// the immutable routing plan, so the race detector must stay quiet.
func TestDistributeWhileIntrospecting(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metricsz", "/clusterz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				f.coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: status %d", path, rec.Code)
					return
				}
			}
		}(path)
	}
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = f.coord.Distribute(context.Background())
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}
