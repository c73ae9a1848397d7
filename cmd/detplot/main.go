// Command detplot emits DET-curve data (Fig. 3) as tab-separated values
// ready for gnuplot/matplotlib: a header line, then one blank-line
// separated block per (duration, system) — baseline-fusion and
// dba-fusion, longest duration first — of (Pfa, Pmiss) points with
// their probit-scaled axes. Points with Pfa or Pmiss at 0 or 1 are
// dropped (the probit is infinite there).
//
// Usage:
//
//	detplot -scale small -seed 42 -V 3 > det.tsv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("detplot: ")
	var (
		scaleFlag = flag.String("scale", "small", "corpus scale: tiny|small|medium|full")
		seed      = flag.Uint64("seed", 42, "experiment seed")
		vFlag     = flag.Int("V", 3, "vote threshold")
	)
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("building pipeline (scale=%s)…", scale)
	p := experiments.BuildPipeline(scale, *seed)
	fig := experiments.RunFig3(p, *vFlag)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintln(w, "# system\tduration_s\tpfa\tpmiss\tprobit_pfa\tprobit_pmiss")
	durs := make([]float64, 0, len(fig.Curves))
	for d := range fig.Curves {
		durs = append(durs, d)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(durs)))
	emit := func(system string, dur float64, pts []metrics.DETPoint) {
		for _, pt := range pts {
			if pt.Pfa <= 0 || pt.Pfa >= 1 || pt.Pmiss <= 0 || pt.Pmiss >= 1 {
				continue
			}
			fmt.Fprintf(w, "%s\t%g\t%.6f\t%.6f\t%.4f\t%.4f\n",
				system, dur, pt.Pfa, pt.Pmiss, metrics.Probit(pt.Pfa), metrics.Probit(pt.Pmiss))
		}
		fmt.Fprintln(w)
	}
	for _, dur := range durs {
		c := fig.Curves[dur]
		emit("baseline-fusion", dur, c.Baseline)
		emit("dba-fusion", dur, c.DBA)
	}
}
