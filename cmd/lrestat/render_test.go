package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func sampleReport() *obs.Report {
	return &obs.Report{
		Meta: map[string]string{"model_version": "3", "front_ends": "FE0,FE1"},
		Counters: map[string]int64{
			"serve.http.errors":         2,
			"serve.score.degraded":      5,
			"serve.queue.rejected":      7,
			"serve.http.score.requests": 900,
		},
		Gauges: map[string]float64{
			"serve.http.inflight": 12,
		},
		Windows: map[string]obs.WindowsData{
			"serve.http.score.seconds": {
				M1: obs.WindowStats{Count: 600, RatePerSec: 10, P50Sec: 0.0021, P95Sec: 0.0084, P99Sec: 0.0152, MeanSec: 0.003},
				M5: obs.WindowStats{Count: 2400, RatePerSec: 8, P99Sec: 0.0201},
			},
			"serve.http.batch.seconds": {
				M1: obs.WindowStats{Count: 60, RatePerSec: 1, P50Sec: 0.011},
			},
			"serve.http.errors":    {M1: obs.WindowStats{Count: 2, RatePerSec: 0.03}},
			"serve.score.degraded": {M1: obs.WindowStats{Count: 5, RatePerSec: 0.08}},
		},
	}
}

func TestRenderDashboard(t *testing.T) {
	out := render(sampleReport(), "http://127.0.0.1:8080")
	for _, want := range []string{
		"model v3",
		"front-ends FE0,FE1",
		"inflight 12   429 total 7",
		"score",  // endpoint row
		"batch",  // endpoint row
		"10.0",   // score req/s 1m
		"2.10ms", // score p50 1m
		"8.40ms", // p95
		"15.2ms", // p99 (adaptive precision)
		"20.1ms", // p99 5m
		"(total 2)",
		"(total 5)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
	// Admission has no queue and forms no batches: no row reports either.
	for _, gone := range []string{"queue depth", "queue wait", "batch size"} {
		if strings.Contains(out, gone) {
			t.Errorf("dashboard still renders %q:\n%s", gone, out)
		}
	}
	// Endpoint rows are sorted for a stable layout.
	if strings.Index(out, "batch ") > strings.Index(out, "score ") {
		t.Errorf("endpoint rows not sorted:\n%s", out)
	}
}

func TestRenderEmptyReport(t *testing.T) {
	// A freshly started daemon (no traffic yet) must render, not panic.
	out := render(&obs.Report{}, "http://x")
	if !strings.Contains(out, "lrestat — http://x") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "endpoint") {
		t.Errorf("table header missing:\n%s", out)
	}
}

func TestEndpointRows(t *testing.T) {
	rows := endpointRows(map[string]obs.WindowsData{
		"serve.http.score.seconds":   {},
		"serve.http.batch.seconds":   {},
		"serve.score.degraded":       {}, // not an endpoint latency metric
		"serve.http..seconds":        {}, // degenerate: empty name skipped
		"cluster.http.score.seconds": {}, // coordinator tier: own labelled row
		"cluster.rpc.w0:91.seconds":  {}, // per-peer RPC latency, not an endpoint
	})
	var labels []string
	for _, r := range rows {
		labels = append(labels, r.label)
	}
	want := []string{"batch", "c/score", "score"}
	if len(labels) != len(want) {
		t.Fatalf("endpointRows = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("endpointRows = %v, want %v", labels, want)
		}
	}
	if rows[1].key != "cluster.http.score.seconds" {
		t.Fatalf("c/score reads %q", rows[1].key)
	}
}

// coordinatorReport is a coordinator /metricsz snapshot: two workers,
// one healthy and one dead behind an open breaker.
func coordinatorReport() *obs.Report {
	return &obs.Report{
		Meta: map[string]string{
			"role":               "coordinator",
			"cluster_generation": "4",
			"model_version":      "4",
			"shard.w0.test:9101": "FE0,FE2",
			"shard.w1.test:9102": "FE1",
		},
		Counters: map[string]int64{
			"cluster.http.errors":                1,
			"cluster.score.degraded":             9,
			"cluster.peer.w0.test:9101.failures": 0,
			"cluster.peer.w1.test:9102.failures": 12,
		},
		Gauges: map[string]float64{
			"cluster.peer.w0.test:9101.up":           1,
			"cluster.peer.w0.test:9101.breaker_open": 0,
			"cluster.peer.w1.test:9102.up":           0,
			"cluster.peer.w1.test:9102.breaker_open": 1,
		},
		Windows: map[string]obs.WindowsData{
			"cluster.http.score.seconds": {
				M1: obs.WindowStats{Count: 540, RatePerSec: 9, P50Sec: 0.004, P95Sec: 0.012, P99Sec: 0.019, MeanSec: 0.005},
			},
			"cluster.rpc.w0.test:9101.seconds": {
				M1: obs.WindowStats{Count: 540, RatePerSec: 9, P95Sec: 0.0031, P99Sec: 0.0054},
			},
			"cluster.http.errors":    {M1: obs.WindowStats{Count: 1, RatePerSec: 0.02}},
			"cluster.score.degraded": {M1: obs.WindowStats{Count: 9, RatePerSec: 0.15}},
		},
	}
}

// TestRenderShardsPanel pins the coordinator dashboard: per-worker
// up/breaker/failure state and shard-RPC latency from the cluster.peer
// and cluster.rpc metric namespaces, pure render, no live fleet.
func TestRenderShardsPanel(t *testing.T) {
	out := render(coordinatorReport(), "http://coord:8080")
	for _, want := range []string{
		"shards — generation 4 (2 workers)",
		"w0.test:9101",
		"w1.test:9102",
		"c/score", // coordinator RED row, labelled apart from worker rows
		"FE0,FE2", // shard assignment from /metricsz meta
		"FE1",
		"3.10ms", // w0 rpc p95 1m
		"5.40ms", // w0 rpc p99 1m
		"coordinator 5xx/s 1m",
		"(total 9)", // cluster.score.degraded cumulative
	} {
		if !strings.Contains(out, want) {
			t.Errorf("shards panel missing %q:\n%s", want, out)
		}
	}
	// Health columns: w0 up with a closed breaker, w1 down with an open
	// one and its failure count.
	for _, row := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(row, "w0.test:9101"):
			if !strings.Contains(row, " up ") || !strings.Contains(row, "closed") {
				t.Errorf("w0 row %q, want up/closed", row)
			}
		case strings.HasPrefix(row, "w1.test:9102"):
			if !strings.Contains(row, "down") || !strings.Contains(row, "open") || !strings.Contains(row, "12") {
				t.Errorf("w1 row %q, want down/open/12 failures", row)
			}
		}
	}
}

// TestRenderStandaloneHasNoShardsPanel: a plain daemon's report renders
// exactly as before the cluster work — no shards section.
func TestRenderStandaloneHasNoShardsPanel(t *testing.T) {
	out := render(sampleReport(), "http://127.0.0.1:8080")
	if strings.Contains(out, "shards") || strings.Contains(out, "c/") {
		t.Errorf("standalone dashboard grew cluster sections:\n%s", out)
	}
}

// TestRenderCascadeRow pins the cascade dashboard line: exit fraction,
// windowed exit rate, tier-1 failures, and per-path latency — rendered
// only when the daemon actually runs -cascade, with a coordinator's
// cluster.cascade.* tier as its own c/cascade row.
func TestRenderCascadeRow(t *testing.T) {
	rep := sampleReport()
	rep.Counters["serve.cascade.exit"] = 300
	rep.Counters["serve.cascade.escalate"] = 100
	rep.Counters["serve.cascade.tier1.failed"] = 2
	rep.Windows["serve.cascade.exit"] = obs.WindowsData{M1: obs.WindowStats{Count: 30, RatePerSec: 4.5}}
	rep.Windows["serve.cascade.tier1.seconds"] = obs.WindowsData{M1: obs.WindowStats{P95Sec: 0.0012}}
	rep.Windows["serve.cascade.escalated.seconds"] = obs.WindowsData{M1: obs.WindowStats{P95Sec: 0.0083}}
	out := render(rep, "http://x")
	for _, want := range []string{
		"cascade exit 75.0% (300/400)",
		"exits/s 1m 4.50",
		"tier1 fails 2",
		"1.20ms", // tier-1 p95
		"8.30ms", // escalated p95
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cascade row missing %q:\n%s", want, out)
		}
	}

	crep := coordinatorReport()
	crep.Counters["cluster.cascade.exit"] = 40
	crep.Counters["cluster.cascade.escalate"] = 60
	cout := render(crep, "http://coord:8080")
	if !strings.Contains(cout, "c/cascade exit 40.0% (40/100)") {
		t.Errorf("coordinator cascade row missing:\n%s", cout)
	}
}

// TestRenderNoCascadeRowWithoutTraffic: a daemon not running -cascade
// (all cascade counters zero or absent) keeps the pre-cascade screen.
func TestRenderNoCascadeRowWithoutTraffic(t *testing.T) {
	if out := render(sampleReport(), "http://x"); strings.Contains(out, "cascade") {
		t.Errorf("cascade row on a cascade-less daemon:\n%s", out)
	}
}

// TestRenderModelPanel pins the model footprint line: precision, rank,
// bundle and scoring-weight sizes from the serve.model.* gauges and
// /metricsz meta — shown only once a bundle has actually loaded.
func TestRenderModelPanel(t *testing.T) {
	rep := sampleReport()
	rep.Meta["model_precision"] = "int8"
	rep.Meta["model_rank"] = "16"
	rep.Gauges["serve.model.bundle_bytes"] = 734003
	rep.Gauges["serve.model.packed_bytes"] = 412000
	out := render(rep, "http://x")
	for _, want := range []string{
		"model int8 rank 16",
		"bundle 716.8 KiB",
		"scoring weights 402.3 KiB",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("model panel missing %q:\n%s", want, out)
		}
	}

	// An uncompressed bundle: no precision/rank meta, full-rank label.
	rep2 := sampleReport()
	rep2.Gauges["serve.model.bundle_bytes"] = 4.5 * (1 << 20)
	out2 := render(rep2, "http://x")
	if !strings.Contains(out2, "model float64 full-rank — bundle 4.50 MiB") {
		t.Errorf("uncompressed model line missing:\n%s", out2)
	}

	// No bundle loaded yet: the line is absent entirely.
	if out3 := render(sampleReport(), "http://x"); strings.Contains(out3, "model float64") {
		t.Errorf("model line rendered without a loaded bundle:\n%s", out3)
	}
}

func TestMsFormatting(t *testing.T) {
	cases := map[float64]string{
		0:      "—",
		0.0005: "0.50ms",
		0.042:  "42.0ms",
		0.420:  "420ms",
	}
	for sec, want := range cases {
		if got := ms(sec); got != want {
			t.Errorf("ms(%v) = %q, want %q", sec, got, want)
		}
	}
}
