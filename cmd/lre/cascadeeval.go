package main

import (
	"encoding/json"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
)

// runCascadeEval is the -cascade-eval path: train the tier-1 cascade on
// the pipeline, evaluate every duration tier at the calibrated margins,
// sweep the threshold grid, and write the whole tradeoff curve as JSON —
// the committed BENCH_cascade.json protocol (see EXPERIMENTS.md).
func runCascadeEval(p *experiments.Pipeline, path string) error {
	start := time.Now()
	bench, err := p.RunCascadeBench()
	if err != nil {
		return err
	}
	for _, ev := range bench.Default {
		log.Printf("cascade %s: exit %.0f%%, tier-1 acc %.2f%%, EER heavy %.2f%% cascade %.2f%% (delta %+.2f)",
			ev.Tier, 100*ev.ExitFrac, ev.Tier1AccPct, ev.EERHeavyPct, ev.EERCascadePct, ev.EERDeltaPct)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(bench); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("wrote cascade tradeoff curve %s in %.1fs", path, time.Since(start).Seconds())
	return nil
}
