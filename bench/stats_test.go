package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestQuantileIsNearestRankOnRawSamples(t *testing.T) {
	samples := []float64{7, 1, 10, 3, 5, 9, 2, 8, 6, 4}
	keep := append([]float64(nil), samples...)
	for _, c := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(samples, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !slices.Equal(samples, keep) {
		t.Errorf("quantile reordered its input: %v", samples)
	}
	// A value no sample took cannot come back.
	if got := quantile([]float64{1, 100}, 0.5); got != 1 {
		t.Errorf("quantile([1 100], 0.5) = %v, want the sample 1", got)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // 10 samples above the 990th
		{999, 98},  // 99: rank 990 leaves 9
		{100, 90},  // 95: rank 95 leaves 5
		{20, 50},   // rank 10 leaves 10
		{15, 0},    // not even the median
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n, 10); got != c.want {
			t.Errorf("tailPercentile(%d, 10) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(42, 0, 150, 10*time.Second)
	b := poissonSchedule(42, 0, 150, 10*time.Second)
	c := poissonSchedule(7, 0, 150, 10*time.Second)
	d := poissonSchedule(42, 1, 150, 10*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("seeds 42 and 7 gave the same schedule")
	}
	if slices.Equal(a, d) {
		t.Fatal("rounds 0 and 1 of one seed gave the same schedule")
	}
	// 1500 expected arrivals, standard deviation ≈ 39.
	if n := len(a); n < 1300 || n > 1700 {
		t.Errorf("%d arrivals in 10 s at 150/s", n)
	}
	for i, d := range a {
		if d < 0 || d >= 10*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside the phase", i, d)
		}
	}
}

func TestRequestOrderIsASeededPermutation(t *testing.T) {
	a, b, c := requestOrder(42, 50), requestOrder(42, 50), requestOrder(7, 50)
	if !slices.Equal(a, b) || slices.Equal(a, c) {
		t.Fatal("order is not reproducible per seed, or not different across seeds")
	}
	s := slices.Clone(a)
	slices.Sort(s)
	for i, v := range s {
		if v != i {
			t.Fatalf("order %v is not a permutation of 0..49", a)
		}
	}
}

// A server that takes 20 ms per request, fed 8 requests due at once over
// two connections: the later requests wait for a connection, and their
// latency, counted from the due time, includes that wait.
func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		json.NewEncoder(w).Encode(serve.ScoreResponse{ScoreResult: serve.ScoreResult{Best: "x"}})
	}))
	defer srv.Close()
	g := &loadGen{
		client: newClient(),
		url:    srv.URL,
		bodies: [][]byte{[]byte(`{}`)},
		want:   []expectation{{Best: "x"}},
		order:  []int{0},
	}
	samples := g.openLoop(0, time.Now(), make([]time.Duration, 8))
	if g.failed.Load() != 0 {
		t.Fatalf("failures: %v", g.failures)
	}
	var late []time.Duration
	for _, s := range samples {
		if s.latency() < s.lateness()+service {
			t.Errorf("latency %v is shorter than lateness %v plus service %v", s.latency(), s.lateness(), service)
		}
		late = append(late, s.lateness())
	}
	slices.Sort(late)
	// Only two requests can be in flight, so the last pair waits for
	// three rounds of service.
	if late[len(late)-1] < 3*service {
		t.Errorf("the most delayed request waited %v, want at least %v", late[len(late)-1], 3*service)
	}
}

func TestParseProcStat(t *testing.T) {
	// pid, a command name holding spaces and parentheses, then fields 3..
	// with utime = 1234 and stime = 56 at fields 14 and 15.
	text := "4242 (lred (w) x) S 1 4242 4242 0 -1 4194560 2735 0 0 0 1234 56 0 0 20 0 9 0 123 1234567 890 18446744073709551615\n"
	got, err := parseProcStat(text)
	if err != nil || got != 1290 {
		t.Fatalf("parseProcStat = %d, %v; want 1290", got, err)
	}
	for _, bad := range []string{"", "4242 lred S 1", "4242 (lred) S 1 2 3", "4242 (lred) S 1 2 3 4 5 6 7 8 9 10 x 56"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted malformed text", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	text := "Name:\tlred\nVmPeak:\t 1300000 kB\nVmHWM:\t   31468 kB\nVmRSS:\t   30000 kB\n"
	got, err := parseVmHWM(text)
	if err != nil || got != 31468 {
		t.Fatalf("parseVmHWM = %d, %v; want 31468", got, err)
	}
	for _, bad := range []string{"Name:\tlred\n", "VmHWM:\t31468 MB\n", "VmHWM:\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted malformed text", bad)
		}
	}
}
