// Command evalscores scores an LRE-style score file (as produced by
// `lre -scores` or any external system) with this repository's metrics:
// pooled EER, minimum Cavg, and optional DET points, per (system,
// duration) block.
//
// Usage:
//
//	lre -scale small -table 1 -scores scores.tsv
//	evalscores scores.tsv
//	evalscores -det scores.tsv > det.tsv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/metrics"
	"repro/internal/scorefile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evalscores: ")
	det := flag.Bool("det", false, "emit DET points instead of summary metrics")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: evalscores [-det] <scores.tsv>")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	records, err := scorefile.Read(f)
	if err != nil {
		log.Fatal(err)
	}

	// Language index from the names present in the file.
	nameIndex := make(map[string]int)
	for _, r := range records {
		if _, ok := nameIndex[r.Model]; !ok {
			nameIndex[r.Model] = len(nameIndex)
		}
	}

	// Group by (system, duration).
	type key struct {
		system string
		dur    float64
	}
	groups := make(map[key][]scorefile.Record)
	for _, r := range records {
		k := key{r.System, r.DurationS}
		groups[k] = append(groups[k], r)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].system != keys[j].system {
			return keys[i].system < keys[j].system
		}
		return keys[i].dur > keys[j].dur
	})

	if !*det {
		fmt.Printf("%-20s %8s %10s %10s %8s\n", "system", "dur(s)", "EER%", "minCavg%", "trials")
	}
	for _, k := range keys {
		trials, err := scorefile.ToPairTrials(groups[k], nameIndex)
		if err != nil {
			log.Fatalf("%s %gs: %v", k.system, k.dur, err)
		}
		if len(trials) == 0 {
			continue
		}
		detTrials := metrics.PairTrialsToDetection(trials)
		if *det {
			fmt.Printf("# %s %gs\n", k.system, k.dur)
			for _, pt := range metrics.DET(detTrials) {
				if pt.Pfa <= 0 || pt.Pfa >= 1 || pt.Pmiss <= 0 || pt.Pmiss >= 1 {
					continue
				}
				fmt.Printf("%.6f\t%.6f\n", pt.Pfa, pt.Pmiss)
			}
			fmt.Println()
			continue
		}
		eer := metrics.EER(detTrials)
		cavg, _ := metrics.MinCavg(trials, len(nameIndex))
		fmt.Printf("%-20s %8g %10.2f %10.2f %8d\n", k.system, k.dur, eer*100, cavg*100, len(trials))
	}
}
