package main

import (
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// workload is one traffic mix and the system that serves it, or the
// offline job. README.md records why each one is in the benchmark.
type workload struct {
	name    string
	lattice bool    // send lattice bodies (else pre-scaled supervectors)
	cascade bool    // the daemon runs -cascade
	fleet   bool    // coordinator + fleetWorkers shard workers
	offline bool    // the offline DBA job: no daemon and no traffic
	rate    float64 // open-loop arrival rate, requests per second
}

var workloads = []workload{
	{name: "sv-replay", rate: 150},
	{name: "lattice-cascade", lattice: true, cascade: true, rate: 120},
	{name: "fleet-sv", fleet: true, rate: 75},
	{name: "offline-dba", offline: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serviceBoots is the number of cold boots per serving run; setup_s is
// their median.
const serviceBoots = 9

// After its warm-up a serving run alternates open and closed loops for
// rounds rounds, so the windows behind each end-to-end figure spread over
// the whole run: a slow spell of the shared host, which can last seconds,
// then lands in a minority of them and the median window ignores it.
const (
	rounds                = 4
	openWindowsPerRound   = 3
	closedWindowsPerRound = 2
)

// phaseLengths splits a serving run's -seconds: a warm-up of an eighth of
// it (not measured), then per round 4/7 of a round's share in the open
// loop and 3/7 in the closed loop.
func phaseLengths(seconds float64) (warm, open, closed time.Duration) {
	d := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return d(seconds / 8), d(seconds * 4 / 7 / rounds), d(seconds * 3 / 7 / rounds)
}

type runConfig struct {
	self    string // this executable, re-run as the set-up child
	lred    string
	work    string
	seed    uint64
	seconds float64
	trace   bool
}

// runResult is one workload run: its metrics, the operations it checked,
// and the raw material behind them.
type runResult struct {
	Workload  string       `json:"workload"`
	Metrics   []metric     `json:"metrics"`
	Attempted int64        `json:"attempted"`
	Failed    int64        `json:"failed"`
	Failures  []string     `json:"failures,omitempty"`
	BootS     []float64    `json:"boot_s,omitempty"`
	Setup     *setupReport `json:"setup"`
	OpenN     int          `json:"open_requests,omitempty"`
	ClosedN   int          `json:"closed_requests,omitempty"`
	TracedN   int          `json:"traced_requests,omitempty"`
}

func runWorkload(cfg runConfig, w workload) (*runResult, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	log.Printf("%s: set-up (seed %d, %s scale)", w.name, cfg.seed, setupScale)
	setup, err := runSetupChild(cfg, w, dir)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.name, Setup: setup}
	res.Attempted = int64(setup.Checks)
	res.Failed = int64(len(setup.Failures))
	res.Failures = append(res.Failures, setup.Failures...)

	ph := &phases{}
	var tp *tracedPassResult
	if !w.offline {
		if ph, tp, err = serveWorkload(cfg, w, dir, res); err != nil {
			return nil, err
		}
	}
	m := &metrics{}
	endToEnd(m, w, res, setup, ph)
	layers(m, w, setup, ph)
	if cfg.trace {
		if err := tracedLayers(m, w, dir, tp, ph); err != nil {
			return nil, err
		}
	}
	res.Metrics = m.list
	return res, nil
}

// serveWorkload boots the workload's system serviceBoots times, drives the
// last boot through the measured phases, stops it, and with -trace runs
// the traced pass.
func serveWorkload(cfg runConfig, w workload, dir string, res *runResult) (*phases, *tracedPassResult, error) {
	bodies, err := readBodies(filepath.Join(dir, bodiesFile))
	if err != nil {
		return nil, nil, err
	}
	var want []expectation
	if err := readJSON(filepath.Join(dir, expectFile), &want); err != nil {
		return nil, nil, err
	}
	if len(bodies) == 0 || len(bodies) != len(want) {
		return nil, nil, fmt.Errorf("set-up wrote %d bodies and %d expectations", len(bodies), len(want))
	}
	order := requestOrder(cfg.seed, len(bodies))

	ctl := newClient()
	var sys *system
	for b := 0; b < serviceBoots; b++ {
		s, d, err := boot(cfg.lred, w, dir, b, ctl)
		if err != nil {
			return nil, nil, err
		}
		res.BootS = append(res.BootS, d.Seconds())
		if b < serviceBoots-1 {
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
			continue
		}
		sys = s
	}
	ph, err := runPhases(cfg, w, sys, ctl, bodies, want, order)
	if err != nil {
		sys.kill()
		return nil, nil, err
	}
	if err := sys.stop(); err != nil {
		return nil, nil, err
	}
	res.Attempted += ph.gen.attempted.Load()
	res.Failed += ph.gen.failed.Load()
	res.Failures = append(res.Failures, ph.gen.failures...)
	res.OpenN, res.ClosedN = len(ph.open), ph.closedN
	if !cfg.trace {
		return ph, nil, nil
	}
	tp, err := runTracedPass(w, dir, filepath.Join(cfg.work, "trace-"+w.name+".json"), bodies, want, order)
	if err != nil {
		return nil, nil, err
	}
	res.TracedN = tp.n
	return ph, tp, nil
}

// openWindow is one window of an open-loop round: the latencies of the
// requests due in it and the servers' CPU time over it.
type openWindow struct {
	lat   []float64 // ms
	ticks int64
}

// phases is what the measured phases leave for the metrics.
type phases struct {
	gen      *loadGen
	open     []openSample // every round's, timed from its round's start
	windows  []openWindow
	openWall time.Duration
	// closedRates is the throughput of each closed-loop window.
	closedRates []float64
	closedN     int
	usage       usage   // /metricsz growth over the open rounds
	genCPUS     float64 // load generator CPU over the open rounds
	// roundRSSMB is the servers' summed peak resident memory in each
	// round: the high-water marks are reset as the round starts.
	roundRSSMB []float64
}

func runPhases(cfg runConfig, w workload, sys *system, ctl *http.Client, bodies [][]byte, want []expectation, order []int) (*phases, error) {
	g := &loadGen{
		client:  newClient(),
		url:     sys.front.base() + "/v1/score",
		bodies:  bodies,
		want:    want,
		order:   order,
		cascade: w.cascade,
	}
	ph := &phases{gen: g, usage: newUsage()}
	warm, openDur, closedDur := phaseLengths(cfg.seconds)
	log.Printf("%s: warm-up %s, then %d rounds of %s open loop at %.0f/s and %s closed loop with %d callers",
		w.name, warm, rounds, openDur, w.rate, closedDur, connections)
	k := len(g.closedLoop(0, warm))
	for r := 0; r < rounds; r++ {
		schedule := poissonSchedule(cfg.seed, r, w.rate, openDur)
		if err := sys.resetPeakRSS(); err != nil {
			return nil, err
		}
		before, err := sys.snapshot(ctl)
		if err != nil {
			return nil, err
		}
		cpu0, err := selfCPU()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ticks := make([]int64, openWindowsPerRound+1)
		sampled := make(chan error, 1)
		go func() {
			for i := range ticks {
				time.Sleep(time.Until(start.Add(time.Duration(i) * openDur / openWindowsPerRound)))
				t, err := sys.cpuTicks()
				if err != nil {
					sampled <- err
					return
				}
				ticks[i] = t
			}
			sampled <- nil
		}()
		samples := g.openLoop(k, start, schedule)
		ph.openWall += time.Since(start)
		k += len(schedule)
		if err := <-sampled; err != nil {
			return nil, err
		}
		cpu1, err := selfCPU()
		if err != nil {
			return nil, err
		}
		ph.genCPUS += cpu1 - cpu0
		after, err := sys.snapshot(ctl)
		if err != nil {
			return nil, err
		}
		ph.usage.add(before, after)
		ph.open = append(ph.open, samples...)
		ph.windows = append(ph.windows, splitWindows(samples, ticks, openDur)...)

		done := g.closedLoop(k, closedDur)
		k += len(done)
		ph.closedN += len(done)
		ph.closedRates = append(ph.closedRates, windowRates(done, closedDur, closedWindowsPerRound)...)
		rss, err := sys.peakRSSMB()
		if err != nil {
			return nil, err
		}
		ph.roundRSSMB = append(ph.roundRSSMB, rss)
	}
	return ph, nil
}

// splitWindows cuts one open-loop round into len(ticks)-1 equal windows by
// due time; ticks holds the servers' CPU time at each window boundary.
func splitWindows(samples []openSample, ticks []int64, dur time.Duration) []openWindow {
	n := len(ticks) - 1
	win := make([]openWindow, n)
	for i := range win {
		win[i].ticks = ticks[i+1] - ticks[i]
	}
	for _, s := range samples {
		i := min(int(s.due*time.Duration(n)/dur), n-1)
		win[i].lat = append(win[i].lat, ms(s.latency()))
	}
	return win
}

// windowRates is the throughput of each of n equal windows of a closed
// loop, given when each request was answered.
func windowRates(done []time.Duration, dur time.Duration, n int) []float64 {
	counts := make([]float64, n)
	for _, d := range done {
		if i := int(d * time.Duration(n) / dur); i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= (dur / time.Duration(n)).Seconds()
	}
	return counts
}

// runSetupChild runs the set-up in its own process and reads its report.
func runSetupChild(cfg runConfig, w workload, dir string) (*setupReport, error) {
	cmd := exec.Command(cfg.self, "-child-setup", dir, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("set-up child: %w", err)
	}
	var rep setupReport
	if err := readJSON(filepath.Join(dir, setupFile), &rep); err != nil {
		return nil, fmt.Errorf("set-up report: %w", err)
	}
	return &rep, nil
}

// tracedPassResult is what the traced pass measured.
type tracedPassResult struct {
	tr     *tracer
	n      int     // requests replayed
	bodyKB float64 // their mean body size
}

// runTracedPass loads the exported bundle and replays the first
// tracedRequests bodies of the seeded order in-process, writing the spans
// to traceFile.
func runTracedPass(w workload, dir, traceFile string, bodies [][]byte, want []expectation, order []int) (*tracedPassResult, error) {
	model, err := serve.NewRegistry(filepath.Join(dir, modelsDir)).Reload()
	if err != nil {
		return nil, fmt.Errorf("traced pass: load bundle: %w", err)
	}
	o, err := newOracle(model, w.cascade)
	if err != nil {
		return nil, err
	}
	log.Printf("%s: traced pass over %d requests", w.name, min(tracedRequests, len(order)))
	tr, n, err := tracedPass(o, bodies, want, order)
	if err != nil {
		return nil, err
	}
	if err := tr.write(traceFile); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	var kb float64
	for k := 0; k < n; k++ {
		kb += float64(len(bodies[order[k]])) / 1024
	}
	return &tracedPassResult{tr: tr, n: n, bodyKB: kb / float64(n)}, nil
}

// tracedLayers adds the per-layer rows of the traced pass and of the
// exported bundle. tp is nil for offline-dba, whose serving layers do no
// work: their rows are 0.
func tracedLayers(m *metrics, w workload, dir string, tp *tracedPassResult, ph *phases) error {
	models := filepath.Join(dir, modelsDir)
	var loads []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := serve.NewRegistry(models).Reload(); err != nil {
			return fmt.Errorf("load bundle: %w", err)
		}
		loads = append(loads, time.Since(t0).Seconds()*1e3)
	}
	st, err := os.Stat(filepath.Join(models, "bundle.gob"))
	if err != nil {
		return err
	}
	us := func(string) float64 { return 0 }
	var kb float64
	if tp != nil {
		us = func(name string) float64 { return tp.tr.perRequestUs(name, tp.n) }
		kb = tp.bodyKB
	}
	m.layer("serve.decode_us", us("serve.decode"), "us")
	m.layer("serve.body_kb", kb, "KB")
	m.layer("serve.resolve_us", us("serve.resolve"), "us")
	m.layer("cascade.tier1_us", us("cascade.tier1"), "us")
	m.layer("score.fe_us", us("score.fe"), "us")
	m.layer("fuse_us", us("fuse"), "us")
	m.layer("serve.encode_us", us("serve.encode"), "us")
	m.layer("cluster.split_encode_us", us("cluster.split_encode"), "us")
	m.layer("persist.load_ms", median(loads), "ms")
	m.layer("persist.bundle_mb", float64(st.Size())/(1<<20), "MB")

	// What the layers above and the queue wait do not explain of the mean
	// open-loop latency: HTTP transport, batch formation and scheduling.
	// Signed: a negative value means the traced calls ran slower in
	// isolation than inside the daemon.
	unattributed := 0.0
	if tp != nil {
		inHandler := us("serve.decode") + us("cascade.tier1") + us("fuse") + us("serve.encode")
		var waited float64
		if w.fleet {
			// Resolution, queueing and scoring happen on the workers, inside
			// the shard RPC.
			inHandler += us("cluster.split_encode")
			waited = m.value("cluster.rpc_ms")
		} else {
			inHandler += us("serve.resolve") + us("score.fe")
			waited = m.value("batch.queue_wait_ms")
		}
		unattributed = mean(openLatencies(ph)) - inHandler/1e3 - waited
	}
	m.layer("serve.unattributed_ms", unattributed, "ms")
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func openLatencies(ph *phases) []float64 {
	var lat []float64
	for _, s := range ph.open {
		lat = append(lat, ms(s.latency()))
	}
	return lat
}

// endToEnd adds the two gated metrics, set-up time and peak memory, and
// the whole-run latency, throughput and cost figures. On the shared
// 2-vCPU host the benchmark is built on those figures move by 10-30%
// between runs, so they are per-layer rows, reported but not gated
// (README.md, "Spread"). A figure that does not apply to the workload
// reports 0.
func endToEnd(m *metrics, w workload, res *runResult, setup *setupReport, ph *phases) {
	// Serving: latency and CPU are medians over the open-loop windows,
	// throughput a median over the closed-loop windows.
	var p50, p90, cpuMs []float64
	for _, win := range ph.windows {
		if len(win.lat) == 0 {
			continue
		}
		p50 = append(p50, quantile(win.lat, 0.5))
		p90 = append(p90, quantile(win.lat, 0.9))
		cpuMs = append(cpuMs, float64(win.ticks)*1e3/clockTicks/float64(len(win.lat)))
	}
	// Offline: medians over the repeats of build and job.
	var wall, cpu, rssKB []float64
	for _, j := range setup.Jobs {
		wall = append(wall, j.WallS)
		cpu = append(cpu, j.CPUS)
		rssKB = append(rssKB, float64(j.PeakRSSKB))
	}
	if w.offline {
		m.e2e("setup_s", median(setup.BuildS), "s")
		m.e2e("peak_rss_mb", median(rssKB)/1024, "MB")
	} else {
		m.e2e("setup_s", median(res.BootS), "s")
		m.e2e("peak_rss_mb", median(ph.roundRSSMB), "MB")
	}
	m.layer("p50_ms", median(p50), "ms")
	m.layer("p90_ms", median(p90), "ms")
	m.layer("rps", median(ph.closedRates), "req/s")
	m.layer("cpu_ms_per_req", median(cpuMs), "ms")
	m.layer("offline_s", median(wall), "s")
	m.layer("offline_cpu_s", median(cpu), "s")
}

// layers adds the per-layer rows measured without the traced pass: the
// set-up child's offline stages and job, the daemons' /metricsz growth
// over the open rounds, and the load generator's own figures. A layer
// that does no work in the workload reports 0.
func layers(m *metrics, w workload, setup *setupReport, ph *phases) {
	m.layer("offline.corpus_s", setup.Stages["corpus"], "s")
	m.layer("offline.extract_s", setup.Stages["extract"], "s")
	m.layer("offline.train_s", setup.Stages["train"], "s")
	m.layer("offline.score_s", setup.Stages["score"], "s")
	m.layer("offline.decoded_utts", float64(setup.DecodedUtts), "count")
	m.layer("offline.dba_selected_ratio", setup.SelectedRatio, "ratio")
	var job jobTiming
	exportS := setup.ExportS
	unattributed := 0.0
	if w.offline {
		// The median job's rows, which with the stages above add up to
		// setup_s plus that job's wall time.
		var wall []float64
		for _, j := range setup.Jobs {
			wall = append(wall, j.WallS)
		}
		job = setup.Jobs[medianIndex(wall)]
		exportS = job.ExportS
		named := setup.Stages["corpus"] + setup.Stages["extract"] + setup.Stages["train"] + setup.Stages["score"] +
			job.M1S + job.M2S + job.FusionEvalS + job.ExportS
		unattributed = median(setup.BuildS) + job.WallS - named
	}
	m.layer("offline.dba_m1_s", job.M1S, "s")
	m.layer("offline.dba_m2_s", job.M2S, "s")
	m.layer("offline.fusion_eval_s", job.FusionEvalS, "s")
	m.layer("offline.export_s", exportS, "s")
	m.layer("offline.unattributed_s", unattributed, "s")

	u := ph.usage
	done := float64(len(ph.open))
	wait := u.hist("serve.queue.wait_seconds")
	m.layer("batch.queue_wait_ms", ratio(wait.sumSec*1e3, wait.count), "ms")
	m.layer("batch.mean_size", ratio(u.counter("serve.batched_jobs"), u.counter("serve.batches")), "count")
	m.layer("batch.score_busy_ms", ratio(u.counter("pool.serve-score.busy_ns")/1e6, done), "ms")
	exits := u.counter("serve.cascade.exit")
	m.layer("cascade.exit_ratio", ratio(exits, exits+u.counter("serve.cascade.escalate")), "ratio")
	var rpc histGrowth
	for name, h := range u.hists {
		if strings.HasPrefix(name, "cluster.rpc.") && strings.HasSuffix(name, ".seconds") {
			rpc.count += h.count
			rpc.sumSec += h.sumSec
		}
	}
	m.layer("cluster.rpc_ms", ratio(rpc.sumSec*1e3, rpc.count), "ms")
	m.layer("cluster.rpc_per_req", ratio(rpc.count, done), "count")

	lat := openLatencies(ph)
	var late []float64
	for _, s := range ph.open {
		late = append(late, ms(s.lateness()))
	}
	pct := tailPercentile(len(lat), 10)
	m.layer("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	m.layer("loadgen.cpu_ms_per_req", ratio(ph.genCPUS*1e3, done), "ms")
	m.layer("tail.pct", pct, "%")
	m.layer("tail.ms", quantile(lat, pct/100), "ms")
	m.layer("open.samples", done, "count")
	m.layer("open.mean_ms", ratio(sum(lat), done), "ms")
	m.layer("open.achieved_rps", ratio(done, ph.openWall.Seconds()), "req/s")
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
