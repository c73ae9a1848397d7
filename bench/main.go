// Command bench is the repository's benchmark: four workloads — three
// traffic mixes served by the real lred daemon and the paper's offline
// DBA job — each reported as end-to-end metrics plus a per-layer ledger.
// See README.md for the workloads, every metric, and how to read them.
//
// Run it from the repository root through bench/run.sh, which builds
// cmd/lred and this program first:
//
//	bash bench/run.sh --workload sv-replay --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh -seed 42 -out bench-42.json   # all four workloads
//
// Every metric prints as a "workload metric value unit" line; the last
// line of standard output is one JSON object with the run's verdict
// (correct, attempted, failed) and its metrics: the end-to-end ones, or
// with --trace 1 the per-layer ones. Any failed operation makes the exit
// status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		workloadName = flag.String("workload", "", "workload to run (empty: all four in turn)")
		seed         = flag.Uint64("seed", 42, "seed of the corpus, the request order and the arrival schedule")
		seconds      = flag.Float64("seconds", 20, "measured seconds of a serving run (open plus closed loops)")
		trace        = flag.Int("trace", 0, "1: run the traced pass and report the per-layer metrics")
		out          = flag.String("out", "", "also write the run's metrics, set-up report and environment as JSON here")
		lred         = flag.String("lred", "", "the lred binary to benchmark (bench/run.sh builds it)")
		work         = flag.String("work", ".bench_build", "scratch directory for set-up files and traces")
		childSetup   = flag.String("child-setup", "", "internal: run the set-up child into this directory")
	)
	flag.Parse()

	if *childSetup != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			log.Fatalf("unknown workload %q", *workloadName)
		}
		cfg := setupConfig{dir: *childSetup, seed: *seed, offline: w.offline, lattice: w.lattice, cascade: w.cascade}
		if err := runSetup(cfg); err != nil {
			log.Fatalf("set-up: %v", err)
		}
		return
	}

	// The load generator gets two processors, as many as it has
	// connections.
	runtime.GOMAXPROCS(connections)
	if *lred == "" {
		log.Fatal("no -lred binary (run through bench/run.sh, which builds one)")
	}
	todo := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			log.Fatalf("unknown workload %q (want one of %s)", *workloadName, strings.Join(workloadNames(), ", "))
		}
		todo = []workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	lredPath, err := filepath.Abs(*lred)
	if err != nil {
		log.Fatal(err)
	}
	cfg := runConfig{self: self, lred: lredPath, work: *work, seed: *seed, seconds: *seconds, trace: *trace == 1}

	doc := report{Env: stamp(cfg)}
	final := result{Metrics: map[string]metricValue{}}
	for _, w := range todo {
		res, err := runWorkload(cfg, w)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		for _, f := range res.Failures {
			log.Printf("%s: FAILED: %s", w.name, f)
		}
		for _, mt := range res.Metrics {
			fmt.Printf("%s %s %s %s\n", w.name, mt.Name, formatValue(mt.Value), mt.Unit)
			if mt.Kind != kindFor(cfg.trace) {
				continue
			}
			key := mt.Name
			if len(todo) > 1 {
				key = w.name + "/" + mt.Name
			}
			final.Metrics[key] = metricValue{Value: mt.Value, Unit: mt.Unit}
		}
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		doc.Runs = append(doc.Runs, res)
	}
	final.Correct = final.Failed == 0
	if *out != "" {
		if err := writeIndented(*out, &doc); err != nil {
			log.Fatalf("write %s: %v", *out, err)
		}
	}
	line, err := json.Marshal(&final)
	if err != nil {
		log.Fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// formatValue prints a measured value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
