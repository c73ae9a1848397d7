package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Rendering is a pure function of the fetched report so it can be tested
// without a live daemon (and so -once output is pipeable).

// render formats one /metricsz report as the dashboard screen.
func render(rep *obs.Report, target string) string {
	var b strings.Builder

	fmt.Fprintf(&b, "lrestat — %s", target)
	if mv := rep.Meta["model_version"]; mv != "" {
		fmt.Fprintf(&b, "   model v%s", mv)
	}
	if fes := rep.Meta["front_ends"]; fes != "" {
		fmt.Fprintf(&b, "   front-ends %s", fes)
	}
	b.WriteByte('\n')

	// Model footprint: present once a bundle has been loaded (the
	// registry publishes its on-disk and scoring-weight sizes at Reload).
	// Compressed bundles additionally carry precision and rank.
	if bb, ok := rep.Gauges["serve.model.bundle_bytes"]; ok {
		prec := rep.Meta["model_precision"]
		if prec == "" {
			prec = "float64"
		}
		fmt.Fprintf(&b, "model %s", prec)
		if r := rep.Meta["model_rank"]; r != "" {
			fmt.Fprintf(&b, " rank %s", r)
		} else {
			b.WriteString(" full-rank")
		}
		fmt.Fprintf(&b, " — bundle %s (scoring weights %s)\n",
			bytesHuman(bb), bytesHuman(rep.Gauges["serve.model.packed_bytes"]))
	}

	// Admission: requests in the handlers, and calls turned away with 429
	// because every admission slot was taken.
	fmt.Fprintf(&b, "inflight %s   429 total %d   draining %s   reload breaker %s\n",
		fmtGauge(rep.Gauges, "serve.http.inflight"),
		rep.Counters["serve.queue.rejected"],
		fmtGauge(rep.Gauges, "serve.draining"),
		breakerState(rep.Gauges))

	// Adaptation row: only on daemons running -adapt (the generation gauge
	// is then always published, even at generation 0).
	if gen, ok := rep.Gauges["adapt.generation"]; ok {
		fmt.Fprintf(&b, "adapt gen %.0f   buffer %s   shadow %s   promoted %d   rolled back %d   vetoed %d   quarantined %d\n",
			gen,
			fmtGauge(rep.Gauges, "adapt.buffer_utts"),
			fmtGauge(rep.Gauges, "adapt.shadow_utts"),
			rep.Counters["adapt.promotions"], rep.Counters["adapt.rollbacks"],
			rep.Counters["adapt.vetoes"], rep.Counters["adapt.quarantined"])
	}
	b.WriteByte('\n')

	// RED per endpoint: every serve.http.<name>.seconds window is one
	// row; a coordinator's cluster.http.<name>.seconds windows render as
	// "c/<name>" rows (both tiers appear when the processes co-reside).
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9s │ %9s %9s\n",
		"endpoint", "req/s 1m", "p50 1m", "p95 1m", "p99 1m", "mean 1m", "req/s 5m", "p99 5m")
	b.WriteString(strings.Repeat("─", 92) + "\n")
	for _, row := range endpointRows(rep.Windows) {
		wd := rep.Windows[row.key]
		fmt.Fprintf(&b, "%-10s %9.1f %9s %9s %9s %9s │ %9.1f %9s\n",
			row.label,
			wd.M1.RatePerSec, ms(wd.M1.P50Sec), ms(wd.M1.P95Sec), ms(wd.M1.P99Sec), ms(wd.M1.MeanSec),
			wd.M5.RatePerSec, ms(wd.M5.P99Sec))
	}
	b.WriteByte('\n')

	// Errors and degradation (the RED "E"), windowed and cumulative.
	errs := rep.Windows["serve.http.errors"]
	deg := rep.Windows["serve.score.degraded"]
	fmt.Fprintf(&b, "5xx/s 1m %8.2f  (total %d)    degraded/s 1m %8.2f  (total %d)\n",
		errs.M1.RatePerSec, rep.Counters["serve.http.errors"],
		deg.M1.RatePerSec, rep.Counters["serve.score.degraded"])

	// Cascade rows: only on daemons running -cascade (the exit/escalate
	// counters then partition every scoring utterance). A coordinator's
	// cluster.cascade.* tier renders as its own c/cascade row, same
	// labelling convention as the RED table.
	for _, row := range []struct{ label, prefix string }{
		{"cascade", "serve.cascade."},
		{"c/cascade", "cluster.cascade."},
	} {
		exit := rep.Counters[row.prefix+"exit"]
		esc := rep.Counters[row.prefix+"escalate"]
		if exit+esc == 0 {
			continue
		}
		wexit := rep.Windows[row.prefix+"exit"]
		t1 := rep.Windows[row.prefix+"tier1.seconds"]
		hv := rep.Windows[row.prefix+"escalated.seconds"]
		fmt.Fprintf(&b, "%s exit %.1f%% (%d/%d)   exits/s 1m %.2f   tier1 fails %d   tier1 p95 1m %s   escalated p95 1m %s\n",
			row.label, 100*float64(exit)/float64(exit+esc), exit, exit+esc,
			wexit.M1.RatePerSec, rep.Counters[row.prefix+"tier1.failed"],
			ms(t1.M1.P95Sec), ms(hv.M1.P95Sec))
	}

	// Shards panel: one row per worker peer, from the coordinator's
	// cluster.peer.<addr>.* health metrics and cluster.rpc.<addr>.seconds
	// latency windows. Only rendered when the target is a coordinator.
	if hosts := shardRows(rep.Gauges); len(hosts) > 0 {
		b.WriteByte('\n')
		b.WriteString("shards")
		if g := rep.Meta["cluster_generation"]; g != "" {
			fmt.Fprintf(&b, " — generation %s", g)
		}
		fmt.Fprintf(&b, " (%d workers)\n", len(hosts))
		fmt.Fprintf(&b, "%-28s %5s %8s %6s %9s %9s %9s   %s\n",
			"worker", "up", "breaker", "fails", "rpc/s 1m", "p95 1m", "p99 1m", "front-ends")
		b.WriteString(strings.Repeat("─", 92) + "\n")
		for _, h := range hosts {
			up, brk := "down", "closed"
			if rep.Gauges["cluster.peer."+h+".up"] > 0 {
				up = "up"
			}
			if rep.Gauges["cluster.peer."+h+".breaker_open"] > 0 {
				brk = "open"
			}
			wd := rep.Windows["cluster.rpc."+h+".seconds"]
			fmt.Fprintf(&b, "%-28s %5s %8s %6d %9.1f %9s %9s   %s\n",
				h, up, brk, rep.Counters["cluster.peer."+h+".failures"],
				wd.M1.RatePerSec, ms(wd.M1.P95Sec), ms(wd.M1.P99Sec),
				rep.Meta["shard."+h])
		}
		cerrs := rep.Windows["cluster.http.errors"]
		cdeg := rep.Windows["cluster.score.degraded"]
		fmt.Fprintf(&b, "coordinator 5xx/s 1m %8.2f  (total %d)    degraded/s 1m %8.2f  (total %d)\n",
			cerrs.M1.RatePerSec, rep.Counters["cluster.http.errors"],
			cdeg.M1.RatePerSec, rep.Counters["cluster.score.degraded"])
	}

	return b.String()
}

// endpointRow is one line of the RED table: a display label plus the
// windows key it reads.
type endpointRow struct {
	label, key string
}

// endpointRows extracts the endpoint names that have latency windows —
// the serving tier's serve.http.* and, on a coordinator, the cluster
// tier's cluster.http.* (labelled c/<name>) — sorted for a stable
// screen layout.
func endpointRows(windows map[string]obs.WindowsData) []endpointRow {
	var rows []endpointRow
	for k := range windows {
		if rest, ok := strings.CutPrefix(k, "serve.http."); ok {
			if name, ok := strings.CutSuffix(rest, ".seconds"); ok && name != "" {
				rows = append(rows, endpointRow{label: name, key: k})
			}
		}
		if rest, ok := strings.CutPrefix(k, "cluster.http."); ok {
			if name, ok := strings.CutSuffix(rest, ".seconds"); ok && name != "" {
				rows = append(rows, endpointRow{label: "c/" + name, key: k})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
	return rows
}

// shardRows extracts worker addresses from cluster.peer.<addr>.up
// gauges, sorted for a stable layout.
func shardRows(gauges map[string]float64) []string {
	var hosts []string
	for k := range gauges {
		if rest, ok := strings.CutPrefix(k, "cluster.peer."); ok {
			if h, ok := strings.CutSuffix(rest, ".up"); ok && h != "" {
				hosts = append(hosts, h)
			}
		}
	}
	sort.Strings(hosts)
	return hosts
}

// bytesHuman renders a byte count with adaptive binary units.
func bytesHuman(n float64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", n/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", n)
	}
}

// ms renders a seconds quantity as adaptive-precision milliseconds.
func ms(sec float64) string {
	v := sec * 1e3
	switch {
	case v == 0:
		return "—"
	case v < 10:
		return fmt.Sprintf("%.2fms", v)
	case v < 100:
		return fmt.Sprintf("%.1fms", v)
	default:
		return fmt.Sprintf("%.0fms", v)
	}
}

// breakerState renders the reload circuit breaker gauge: open/closed, or
// a dash against daemons predating the gauge.
func breakerState(gauges map[string]float64) string {
	v, ok := gauges["serve.reload.breaker_open"]
	switch {
	case !ok:
		return "—"
	case v > 0:
		return "open"
	default:
		return "closed"
	}
}

func fmtGauge(gauges map[string]float64, key string) string {
	v, ok := gauges[key]
	if !ok {
		return "—"
	}
	return fmt.Sprintf("%g", v)
}
