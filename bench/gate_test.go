package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// The test binary doubles as the benchmark command and as a stand-in lred
// (a real serve.Server behind a handler that can corrupt its answers), so
// the command's exit status is tested end to end without a build. Every
// set-up, including the command's set-up child, runs at tiny scale.
func TestMain(m *testing.M) {
	setupScale = experiments.ScaleTiny
	switch os.Getenv("BENCH_TEST_ROLE") {
	case "bench":
		main()
		os.Exit(0)
	case "lred":
		os.Exit(fakeLred(os.Args[1:]))
	}
	code := m.Run()
	for _, dir := range fixtureDirs {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

// Tiny-scale set-ups shared by the tests, one per workload.
var (
	fixtureMu   sync.Mutex
	fixtureDirs = map[string]string{}
)

const fixtureSeed = 11

func fixture(t *testing.T, name string) (dir string, bodies [][]byte, want []expectation) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	dir, ok = fixtureDirs[name]
	if !ok {
		var err error
		if dir, err = os.MkdirTemp("", "bench-fixture-"); err != nil {
			t.Fatal(err)
		}
		fixtureDirs[name] = dir
		cfg := setupConfig{dir: dir, seed: fixtureSeed, offline: w.offline, lattice: w.lattice, cascade: w.cascade}
		if err := runSetup(cfg); err != nil {
			t.Fatalf("set-up %s: %v", name, err)
		}
	}
	var rep setupReport
	if err := readJSON(filepath.Join(dir, setupFile), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("set-up checks failed: %v", rep.Failures)
	}
	if w.offline {
		return dir, nil, nil
	}
	bodies, err := readBodies(filepath.Join(dir, bodiesFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := readJSON(filepath.Join(dir, expectFile), &want); err != nil {
		t.Fatal(err)
	}
	return dir, bodies, want
}

// startServer runs an in-process serve.Server on loopback behind wrap and
// drains it when the test ends.
func startServer(t *testing.T, cfg serve.Config, mode string) string {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunHandler(ctx, ln, tamper(mode, s.Handler())) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("server drain: %v", err)
		}
	})
	return "http://" + ln.Addr().String()
}

// The in-process oracles must equal the daemon's answers bit for bit,
// for supervector bodies and for lattice bodies under the cascade.
func TestOracleMatchesDaemon(t *testing.T) {
	for _, name := range []string{"sv-replay", "lattice-cascade"} {
		t.Run(name, func(t *testing.T) {
			w, _ := findWorkload(name)
			dir, bodies, want := fixture(t, name)
			url := startServer(t, serve.Config{
				ModelDir: filepath.Join(dir, modelsDir),
				Cascade:  serve.CascadeConfig{Enabled: w.cascade},
			}, "none")
			g := &loadGen{client: newClient(), url: url + "/v1/score", bodies: bodies, want: want,
				order: requestOrder(1, len(bodies)), cascade: w.cascade}
			exits := 0
			for k := range bodies {
				g.send(k)
				if want[k].Exited {
					exits++
				}
			}
			if n := g.failed.Load(); n > 0 {
				t.Fatalf("%d of %d answers differ from the oracle; first: %v", n, len(bodies), g.failures)
			}
			if w.cascade && (exits == 0 || exits == len(bodies)) {
				t.Errorf("%d of %d lattice bodies exit at tier 1; the check needs both paths", exits, len(bodies))
			}
		})
	}
}

// Each way a daemon can answer wrongly counts as one failed operation.
func TestEveryWrongAnswerCountsAsFailed(t *testing.T) {
	dir, bodies, want := fixture(t, "sv-replay")
	for _, mode := range []string{"none", "flip", "missing", "degraded", "429", "5xx"} {
		t.Run(mode, func(t *testing.T) {
			url := startServer(t, serve.Config{ModelDir: filepath.Join(dir, modelsDir)}, mode)
			g := &loadGen{client: newClient(), url: url + "/v1/score", bodies: bodies, want: want, order: []int{0, 1, 2}}
			for k := 0; k < 3; k++ {
				g.send(k)
			}
			wantFailed := int64(3)
			if mode == "none" {
				wantFailed = 0
			}
			if got := g.failed.Load(); got != wantFailed || g.attempted.Load() != 3 {
				t.Fatalf("failed %d of %d, want %d of 3 (%v)", got, g.attempted.Load(), wantFailed, g.failures)
			}
		})
	}
}

// The command exits non-zero, still printing its verdict, when the daemon
// answers wrongly. A clean traced run exits 0 and reports exactly the
// metrics BENCHMARK.json names, with their units: the per-layer ones in
// the result line, the end-to-end ones (all positive) among the printed
// lines.
func TestCommandExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole command twice")
	}
	var spec struct {
		EndToEnd []metricValueSpec `json:"end_to_end"`
		PerLayer []metricValueSpec `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	lred := filepath.Join(tmp, "lred")
	script := fmt.Sprintf("#!/bin/sh\nBENCH_TEST_ROLE=lred exec %q \"$@\"\n", self)
	if err := os.WriteFile(lred, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"none", "flip"} {
		t.Run(mode, func(t *testing.T) {
			trace := map[string]string{"none": "1", "flip": "0"}[mode]
			cmd := exec.Command(self, "--workload", "sv-replay", "--seed", "3", "--seconds", "1", "--trace", trace,
				"-lred", lred, "-work", filepath.Join(tmp, "work-"+mode))
			cmd.Env = append(os.Environ(), "BENCH_TEST_ROLE=bench", "BENCH_FAKE="+mode)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				t.Fatalf("last line is not the result (%v): %q\n%s", jerr, lines[len(lines)-1], stderr.String())
			}
			if mode == "flip" {
				var exit *exec.ExitError
				if !errors.As(err, &exit) || res.Correct || res.Failed == 0 {
					t.Fatalf("corrupted answers: exit %v, verdict %+v; want a non-zero status and failures", err, res)
				}
				return
			}
			if err != nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("clean run: exit %v, verdict %+v\n%s", err, res, stderr.String())
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("result line has %d metrics, BENCHMARK.json names %d per-layer ones", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer metric %s (%s): got %+v", m.Name, m.Unit, v)
				}
			}
			printed := map[string][]string{}
			for _, line := range lines[:len(lines)-1] {
				if f := strings.Fields(line); len(f) == 4 {
					printed[f[1]] = f[2:]
				}
			}
			for _, m := range spec.EndToEnd {
				f, ok := printed[m.Name]
				if !ok || f[1] != m.Unit || strings.HasPrefix(f[0], "-") || f[0] == "0" {
					t.Errorf("end-to-end metric %s (%s): printed %v", m.Name, m.Unit, f)
				}
			}
		})
	}
}

type metricValueSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// fakeLred is the stand-in daemon: lred's standalone flags, a real
// serve.Server, and answers corrupted as BENCH_FAKE says.
func fakeLred(args []string) int {
	fs := flag.NewFlagSet("lred", flag.ContinueOnError)
	models := fs.String("models", "", "")
	addr := fs.String("addr", "127.0.0.1:0", "")
	casc := fs.Bool("cascade", false, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := serve.New(serve.Config{ModelDir: *models, Cascade: serve.CascadeConfig{Enabled: *casc}})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "lred: serving on http://%s\n", ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	if err := s.RunHandler(ctx, ln, tamper(os.Getenv("BENCH_FAKE"), s.Handler())); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// tamper corrupts /v1/score answers: one flipped score bit, a missing
// front-end, a degraded flag, or a 429 or 500 instead of an answer.
func tamper(mode string, h http.Handler) http.Handler {
	if mode == "" || mode == "none" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/score" {
			h.ServeHTTP(w, r)
			return
		}
		switch mode {
		case "429":
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		case "5xx":
			http.Error(w, `{"error":"scoring failed"}`, http.StatusInternalServerError)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp serve.ScoreResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Scores) == 0 {
			http.Error(w, "tamper: no scores to corrupt", http.StatusInternalServerError)
			return
		}
		var names []string
		for name := range resp.Scores {
			names = append(names, name)
		}
		slices.Sort(names)
		switch mode {
		case "flip":
			row := resp.Scores[names[0]]
			row[0] = math.Float64frombits(math.Float64bits(row[0]) ^ 1)
		case "missing":
			delete(resp.Scores, names[0])
		case "degraded":
			resp.Degraded = true
			resp.Surviving = names[1:]
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&resp)
	})
}
