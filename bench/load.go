package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// connections is the load generator's connection limit: every phase runs
// at most this many requests at once.
const connections = 2

func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			DisableCompression:  true,
		},
	}
}

// loadGen drives one daemon endpoint with the workload's bodies, checking
// every response against its expectation.
type loadGen struct {
	client  *http.Client
	url     string
	bodies  [][]byte
	want    []expectation
	order   []int
	cascade bool

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string // the first few failure descriptions
}

// send posts the k-th request of the seeded order and checks the answer.
func (g *loadGen) send(k int) {
	i := g.order[k%len(g.order)]
	g.attempted.Add(1)
	msg := g.post(i)
	if msg == "" {
		return
	}
	g.failed.Add(1)
	g.failMu.Lock()
	if len(g.failures) < 5 {
		g.failures = append(g.failures, fmt.Sprintf("body %d: %s", i, msg))
	}
	g.failMu.Unlock()
}

func (g *loadGen) post(i int) string {
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(g.bodies[i]))
	if err != nil {
		return err.Error()
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "read response: " + err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("status %d: %.200s", resp.StatusCode, data)
	}
	var sr serve.ScoreResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return "decode response: " + err.Error()
	}
	return check(&sr, &g.want[i], g.cascade)
}

// openLoop sends request first+k at start+schedule[k], whether or not
// earlier requests have finished, over at most `connections`
// connections. A request that finds both connections busy waits for one;
// its latency still runs from its due time.
func (g *loadGen) openLoop(first int, start time.Time, schedule []time.Duration) []openSample {
	samples := make([]openSample, len(schedule))
	due := make(chan int, len(schedule)) // holds every send, so the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range due {
				s := &samples[k]
				s.due = schedule[k]
				s.sent = time.Since(start)
				g.send(first + k)
				s.done = time.Since(start)
			}
		}()
	}
	for k, at := range schedule {
		if wait := time.Until(start.Add(at)); wait > 0 {
			time.Sleep(wait)
		}
		due <- k
	}
	close(due)
	wg.Wait()
	return samples
}

// closedLoop runs `connections` callers that each send their next request
// as soon as the previous one is answered, for dur. It returns when each
// request was answered, as offsets from the phase start.
func (g *loadGen) closedLoop(first int, dur time.Duration) []time.Duration {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	done := make([][]time.Duration, connections)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				g.send(int(next.Add(1) - 1))
				done[c] = append(done[c], time.Since(start))
			}
		}()
	}
	wg.Wait()
	return slices.Concat(done...)
}
