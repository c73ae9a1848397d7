package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// tracedRequests is how many requests of the seeded order the traced pass
// replays in-process.
const tracedRequests = 460

// span is one bench-side span around a layer call. Spans of one request
// share Req; every layer span's parent is its request's "request" span.
type span struct {
	Name    string  `json:"name"`
	Req     int     `json:"req"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// tracer keeps spans in memory and sums their durations per layer. A nil
// tracer runs the timed calls without recording anything.
type tracer struct {
	t0    time.Time
	req   int
	spans []span
	sums  map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: make(map[string]time.Duration)}
}

func (t *tracer) time(name string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	d := time.Since(start)
	t.record(name, "request", start, d)
}

func (t *tracer) record(name, parent string, start time.Time, d time.Duration) {
	t.sums[name] += d
	t.spans = append(t.spans, span{
		Name:    name,
		Req:     t.req,
		Parent:  parent,
		StartUs: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		DurUs:   float64(d.Nanoseconds()) / 1e3,
	})
}

// perRequestUs is a layer's mean time per traced request, in µs.
func (t *tracer) perRequestUs(name string, requests int) float64 {
	return float64(t.sums[name].Nanoseconds()) / 1e3 / float64(requests)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedPass replays the first tracedRequests bodies of the seeded order
// in-process, on one goroutine, timing each layer's public call: JSON
// decode, tier 1, resolution, SVM scoring, fusion, the per-worker
// sub-request encode a coordinator does, and the response encode. Every
// answer is checked against the expectation the daemon was held to.
func tracedPass(o *oracle, bodies [][]byte, want []expectation, order []int) (*tracer, int, error) {
	tr := newTracer()
	var names []string
	for _, fe := range o.model.Bundle.FrontEnds {
		names = append(names, fe.Name)
	}
	shards := cluster.Assign(names, fleetWorkers)
	n := min(tracedRequests, len(order))
	for k := 0; k < n; k++ {
		i := order[k]
		tr.req = k
		start := time.Now()
		var req serve.ScoreRequest
		var err error
		tr.time("serve.decode", func() { err = json.Unmarshal(bodies[i], &req) })
		if err != nil {
			return nil, 0, fmt.Errorf("traced request %d: decode: %w", k, err)
		}
		got, res, err := o.answer(&req, tr)
		if err != nil {
			return nil, 0, fmt.Errorf("traced request %d: %w", k, err)
		}
		if !got.Exited {
			tr.time("cluster.split_encode", func() {
				for _, fes := range shards {
					sub := serve.ScoreRequest{ID: req.ID, FrontEnds: make(map[string]serve.FrontEndInput, len(fes))}
					for _, fe := range fes {
						sub.FrontEnds[fe] = req.FrontEnds[fe]
					}
					_, err = json.Marshal(&sub)
				}
			})
			if err != nil {
				return nil, 0, fmt.Errorf("traced request %d: sub-request encode: %w", k, err)
			}
		}
		tr.time("serve.encode", func() {
			_, err = json.Marshal(&serve.ScoreResponse{
				ModelVersion: o.model.Version,
				Languages:    o.model.Bundle.Languages,
				ScoreResult:  res,
			})
		})
		if err != nil {
			return nil, 0, fmt.Errorf("traced request %d: response encode: %w", k, err)
		}
		tr.record("request", "", start, time.Since(start))
		if msg := diff(&got, &want[i]); msg != "" {
			return nil, 0, fmt.Errorf("traced request %d (body %d): in-process answer differs from the expectation: %s", k, i, msg)
		}
	}
	return tr, n, nil
}
