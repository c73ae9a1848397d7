// Command lre regenerates the paper's evaluation tables and figures on the
// synthetic LRE09 substitute corpus.
//
// Usage:
//
//	lre -scale medium -seed 42 -table all     # Tables 1–5 + Fig. 3
//	lre -table 1                              # T_DBA composition vs V
//	lre -table 2                              # DBA-M1 sweep
//	lre -table 3                              # DBA-M2 sweep
//	lre -table 4 -V 3                         # fusion comparison
//	lre -table 5                              # real-time factors
//	lre -fig 3                                # DET curve points
//	lre -ablation vote                        # vote-criterion ablation
//
// Model export for the online scoring daemon (cmd/lred):
//
//	lre -scale small -seed 42 -export-models ./models
//
// writes the trained baseline bundle — per-front-end TFLLR scalers and
// one-vs-rest SVM sets plus the trial-level fusion backend — as
// bundle.gob with a manifest.json provenance sidecar (seed, scale,
// front-ends, git describe), in bundle format 2. cmd/lred serves it; see
// README "Serving". A bundle an older build exported is format 1, which
// cmd/lred refuses: re-run this export.
//
//	lre -scale small -seed 42 -export-models ./models -compress-rank 24
//
// writes the compressed form instead: an int8 rank-24 projection basis
// and int8 rank-space kernel per front-end, the only compressed bundle
// cmd/lred serves.
//
// Checkpoint/resume (see DESIGN.md "Checkpointing & crash safety"):
//
//	lre -scale full -table all -checkpoint-dir ./ckpt           # checkpoint as you go
//	lre -scale full -table all -checkpoint-dir ./ckpt -resume   # continue a killed run
//	lre … -checkpoint-keep 3                                    # prune after success
//	lre … -chaos 'seed=1; checkpoint.save.prepublish:panic:every=1,after=3,count=1'
//
// Resumed runs produce byte-identical tables; a corrupt or torn newest
// checkpoint generation falls back to the previous one.
//
// Quality sweeps (see EXPERIMENTS.md; serving cost is bench/run.sh's):
//
//	lre -scale medium -seed 42 -compress-eval BENCH_compress.json   # rank sweep: size, ΔEER
//	lre -scale medium -seed 42 -cascade-eval BENCH_cascade.json     # tier-1 exit rate vs EER
//
// Observability (internal/obs) outputs:
//
//	lre -table 5 -report-out report.json      # span tree + metrics + run meta
//	lre -pprof-cpu cpu.out -pprof-mem mem.out # stdlib pprof profiles
//
// The pipeline (corpus generation, decoding, supervector extraction,
// baseline training) is built once and shared by all requested outputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/corpus"
	"repro/internal/dba"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/scorefile"
	"repro/internal/synthlang"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lre: ")
	var (
		scaleFlag  = flag.String("scale", "small", "corpus scale: tiny|small|medium|full")
		seed       = flag.Uint64("seed", 42, "experiment seed")
		table      = flag.String("table", "", "table to regenerate: 1|2|3|4|5|all")
		fig        = flag.String("fig", "", "figure to regenerate: 3")
		vFlag      = flag.Int("V", 3, "vote threshold for Table 4 / Fig. 3")
		ablation   = flag.String("ablation", "", "ablation to run: vote|fa")
		iterate    = flag.Int("iterate", 0, "run N-round iterated DBA (extension; 0 = off)")
		openset    = flag.Int("openset", 0, "evaluate open-set condition with N out-of-set languages (extension; 0 = off)")
		scoresOut  = flag.String("scores", "", "write LRE-style score files for the baseline subsystems to this path")
		exportDir  = flag.String("export-models", "", "export the trained baseline bundle + manifest for cmd/lred to this directory")
		exportReqs = flag.String("export-requests", "", "write pooled test utterances as replay /v1/score request bodies (JSON Lines, vote-selected first) to this path")
		exportReqN = flag.Int("export-requests-count", 64, "with -export-requests: how many requests to write (0 = all)")
		reportOut  = flag.String("report-out", "", "write the run report (span trace, counters/gauges/latency histograms, run meta) as JSON to this path")
		pprofCPU   = flag.String("pprof-cpu", "", "write a CPU profile of the whole run to this path")
		pprofMem   = flag.String("pprof-mem", "", "write a heap profile at end of run to this path")
		compEval   = flag.String("compress-eval", "", "run the rank compression sweep (bundle size, fused ΔEER) and write the JSON report (BENCH_compress.json) to this path")
		compRank   = flag.Int("compress-rank", 0, "with -export-models: export an int8 compressed bundle at this projection rank (0 = uncompressed)")
		cascEval   = flag.String("cascade-eval", "", "train the tier-1 cascade, sweep thresholds, and write the exit-rate/accuracy/EER tradeoff curve JSON (BENCH_cascade.json) to this path")
		ckDir      = flag.String("checkpoint-dir", "", "checkpoint directory: phase results are saved here and (with -resume) restored")
		resume     = flag.Bool("resume", false, "resume from the newest intact generation in -checkpoint-dir (required when the dir already holds checkpoints)")
		ckKeep     = flag.Int("checkpoint-keep", 0, "after a successful run, prune checkpoint generations older than the newest N (0 = keep all)")
		chaos      = flag.String("chaos", "", "deterministic fault-injection plan, e.g. \"seed=1; checkpoint.save.prepublish:panic:after=3,count=1\"")
	)
	flag.Parse()
	if *chaos != "" {
		plan, err := faultinject.ParsePlan(*chaos)
		if err != nil {
			log.Fatal(err)
		}
		faultinject.Enable(plan)
		log.Printf("chaos plan armed: %s", *chaos)
	}
	if *table == "" && *fig == "" && *ablation == "" && *exportDir == "" && *exportReqs == "" && *cascEval == "" && *compEval == "" {
		*table = "all"
	}

	if *pprofCPU != "" {
		f, err := os.Create(*pprofCPU)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}

	// A bad rank fails fast, before the (potentially minutes-long)
	// pipeline build.
	if *compRank < 0 {
		log.Fatalf("-compress-rank %d: rank must be >= 0 (0 = uncompressed)", *compRank)
	}

	wantTable := func(n string) bool {
		return *table == "all" || *table == n ||
			strings.Contains(","+*table+",", ","+n+",")
	}
	needPipeline := wantTable("1") || wantTable("2") || wantTable("3") ||
		wantTable("4") || *fig == "3" || *ablation != "" || *scoresOut != "" ||
		*iterate > 0 || *openset > 0 || *exportDir != "" || *exportReqs != "" ||
		*cascEval != "" || *compEval != ""

	// The checkpoint flags act on -checkpoint-dir; without it they would
	// be silently ignored, and -resume would quietly start a fresh run.
	if *ckDir == "" && (*resume || *ckKeep != 0) {
		log.Fatal("-resume and -checkpoint-keep need -checkpoint-dir")
	}
	var store *checkpoint.Store
	if *ckDir != "" {
		store, err = checkpoint.Open(*ckDir, checkpoint.Meta{Scale: scale.String(), Seed: *seed})
		if err != nil {
			log.Fatalf("checkpoint dir %s: %v", *ckDir, err)
		}
		if store.Generation() > 0 && !*resume {
			log.Fatalf("checkpoint dir %s already holds generation %d: pass -resume or use a fresh dir",
				*ckDir, store.Generation())
		}
		if store.Generation() > 0 {
			log.Printf("resuming from checkpoint generation %d (%d entries, %d corrupt generations skipped)",
				store.Generation(), store.Len(), store.FellBack())
		}
	}

	var p *experiments.Pipeline
	if needPipeline {
		start := time.Now()
		log.Printf("building pipeline (scale=%s seed=%d)…", scale, *seed)
		p, err = experiments.BuildPipelineCK(scale, *seed, store)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("pipeline ready in %.1fs: train=%d dev=%d test=%d utterances × 6 front-ends",
			time.Since(start).Seconds(), len(p.TrainLabels), len(p.DevLabels), len(p.TestLabels))
	}

	out := os.Stdout
	if wantTable("1") {
		fmt.Fprintln(out, experiments.RunTable1(p))
	}
	if wantTable("2") {
		fmt.Fprintln(out, experiments.RunTableDBA(p, dba.M1))
	}
	if wantTable("3") {
		fmt.Fprintln(out, experiments.RunTableDBA(p, dba.M2))
	}
	if wantTable("4") {
		t4 := experiments.RunTable4(p, *vFlag)
		fmt.Fprintln(out, t4)
		fmt.Fprintln(out, t4.Summary())
	}
	if wantTable("5") {
		t5, err := experiments.RunTable5(experiments.DefaultTable5Config())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out, t5)
	}
	if *fig == "3" {
		fmt.Fprintln(out, experiments.RunFig3(p, *vFlag))
	}
	if *ablation == "vote" {
		fmt.Fprintln(out, experiments.RunVoteAblation(p, *vFlag))
	}
	if *ablation == "fa" {
		fmt.Fprintln(out, "Vote-calibration FA sweep (|T_DBA| and label error at V=3):")
		for _, fa := range []float64{0.01, 0.02, 0.03, 0.05, 0.08, 0.12} {
			st := p.SelectionStatsAtFA(fa, *vFlag)
			fmt.Fprintf(out, "  fa=%-5.2f |T_DBA|=%5d  err=%5.2f%%\n", st.FA, st.Size, st.ErrorRatePct)
		}
		fmt.Fprintln(out)
	}
	if *iterate > 0 {
		o := p.IterativeDBA(*vFlag, dba.M2, *iterate)
		fmt.Fprintln(out, p.IterativeReport(o))
	}
	if *openset > 0 {
		fmt.Fprintln(out, experiments.RunOpenSet(p, *openset, 8))
	}
	if *scoresOut != "" {
		if err := writeScores(p, *scoresOut); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote score file %s", *scoresOut)
	}
	if *exportDir != "" {
		m, err := p.ExportModels(*exportDir, gitDescribe(), *compRank)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("exported bundle to %s: %d front-ends, %d languages, rank %d, fusion=%v, cascade=%q",
			*exportDir, len(m.FrontEnds), m.NumLanguages, *compRank, m.Fusion, m.Cascade)
	}
	if *exportReqs != "" {
		written, voted, err := p.ExportRequests(*exportReqs, *exportReqN)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("exported %d replay requests to %s (%d vote-selected)", written, *exportReqs, voted)
	}
	if *compEval != "" {
		rep, err := experiments.RunCompressEval(p, nil)
		if err != nil {
			log.Fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*compEval, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		if rep.Headline != nil {
			log.Printf("compress-eval: headline rank=%d size=%.1fx max|ΔEER|=%.2f → %s",
				rep.Headline.Rank, rep.Headline.SizeReduction,
				rep.Headline.MaxAbsDeltaEER, *compEval)
		} else {
			log.Printf("compress-eval: no operating point met the headline criteria → %s", *compEval)
		}
	}
	if *cascEval != "" {
		if err := runCascadeEval(p, *cascEval); err != nil {
			log.Fatal(err)
		}
	}

	if store != nil && *ckKeep > 0 {
		if err := store.Prune(*ckKeep); err != nil {
			log.Printf("checkpoint prune: %v", err)
		} else {
			log.Printf("pruned checkpoint dir to the newest %d generations", *ckKeep)
		}
	}

	if *reportOut != "" {
		rep := obs.Snapshot()
		rep.Meta = map[string]string{
			"scale":      scale.String(),
			"seed":       strconv.FormatUint(*seed, 10),
			"table":      *table,
			"fig":        *fig,
			"go":         runtime.Version(),
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		}
		f, err := os.Create(*reportOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote run report %s", *reportOut)
	}

	if *pprofMem != "" {
		f, err := os.Create(*pprofMem)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote heap profile %s", *pprofMem)
	}
}

// gitDescribe records build provenance in exported manifests; an empty
// string when git (or the repo) is unavailable.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// writeScores dumps every baseline subsystem's pooled test scores as an
// LRE-style score file, one system per front-end, ready for external
// scoring tools (or for re-evaluation via internal/scorefile).
func writeScores(p *experiments.Pipeline, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var records []scorefile.Record
	for q, d := range p.Data {
		for _, dur := range corpus.Durations {
			// Restrict to the duration tier so each record carries its
			// nominal duration.
			scores := make([][]float64, len(p.TestLabels))
			for _, j := range p.TestIdx[dur] {
				scores[j] = p.BaselineScores[q][j]
			}
			records = append(records, scorefile.FromScoreMatrix(
				"baseline-"+d.Name, dur, scores, p.TestLabels, synthlang.LanguageNames, nil)...)
		}
	}
	return scorefile.Write(f, records)
}
