package experiments

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/synthlang"
)

// OpenSetResult compares the closed-set condition the paper evaluates
// against LRE09's open-set condition, where test audio may come from
// out-of-set (OOS) languages that every one of the 23 detectors must
// reject. OOS trials only add non-target trials, so the open-set EER is
// the stress test of detector calibration.
type OpenSetResult struct {
	// Per duration: closed-set and open-set pooled EER (%), and the
	// false-alarm rate (%) on OOS trials at the closed-set EER threshold.
	Closed, Open, OOSFalseAlarm map[float64]float64
	NumOOSLangs, OOSPerLang     int
}

// RunOpenSet generates oosLangs extra synthetic languages (drawn from a
// disjoint seed so they are genuinely out-of-set), decodes perLang
// utterances per duration through every front-end, and rescores the
// pooled detection trials with the OOS non-target trials added.
func RunOpenSet(p *Pipeline, oosLangs, perLang int) *OpenSetResult {
	// OOS languages come from a shifted seed: same generator family,
	// different draws — unseen phonotactics.
	all := synthlang.Generate(corpus.DefaultConfig().LangConfig, p.Seed+7777)
	if oosLangs > len(all) {
		oosLangs = len(all)
	}
	oos := all[:oosLangs]
	cfg := CorpusConfig(p.Scale, p.Seed)
	root := rng.New(p.Seed).SplitString("openset")

	res := &OpenSetResult{
		Closed:        make(map[float64]float64),
		Open:          make(map[float64]float64),
		OOSFalseAlarm: make(map[float64]float64),
		NumOOSLangs:   oosLangs,
		OOSPerLang:    perLang,
	}
	for _, dur := range corpus.Durations {
		// Closed-set trials from the cached baseline scores, pooled over
		// front-ends.
		var pairs []metrics.PairTrial
		for q := range p.BaselineScores {
			pairs = append(pairs, pairTrials(p.BaselineScores[q], p.TestLabels, p.TestIdx[dur])...)
		}
		closed := metrics.PairTrialsToDetection(pairs)
		eerClosed, th := metrics.EERPoint(closed)
		res.Closed[dur] = eerClosed * 100

		// OOS trials: decode fresh utterances through every front-end.
		type job struct {
			lang *synthlang.Language
			i    int
		}
		var jobs []job
		for _, lang := range oos {
			for i := 0; i < perLang; i++ {
				jobs = append(jobs, job{lang, i})
			}
		}
		durCopy := dur
		oosScores := parallel.Map(len(jobs), func(j int) [][]float64 {
			jb := jobs[j]
			out := make([][]float64, len(p.FEs))
			for q, fe := range p.FEs {
				r := root.SplitString(jb.lang.Name).Split(uint64(jb.i)*31 + uint64(q))
				spk := synthlang.NewSpeaker(r, jb.i)
				u := jb.lang.Sample(r, durCopy, spk, cfg.TestChannels.Draw(r))
				v := fe.Space.Supervector(fe.Decode(r, u))
				if tf := p.Feats[q].TF; tf != nil {
					tf.Apply(v)
				}
				out[q] = p.Baseline[q].Scores(v)
			}
			return out
		})
		open := append([]metrics.Trial(nil), closed...)
		oosAccepted, oosTotal := 0, 0
		for _, rows := range oosScores {
			for _, row := range rows {
				for _, s := range row {
					open = append(open, metrics.Trial{Score: s, Target: false})
					oosTotal++
					if s > th {
						oosAccepted++
					}
				}
			}
		}
		res.Open[dur] = metrics.EER(open) * 100
		if oosTotal > 0 {
			res.OOSFalseAlarm[dur] = float64(oosAccepted) / float64(oosTotal) * 100
		}
	}
	return res
}

// String renders the comparison.
func (r *OpenSetResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Open-set evaluation (extension): %d OOS languages × %d utterances/duration\n",
		r.NumOOSLangs, r.OOSPerLang)
	fmt.Fprintf(&b, "%-6s %12s %12s %18s\n", "dur", "closed EER%", "open EER%", "OOS FA% @closed-th")
	for _, dur := range corpus.Durations {
		fmt.Fprintf(&b, "%4.0fs %12.2f %12.2f %18.2f\n",
			dur, r.Closed[dur], r.Open[dur], r.OOSFalseAlarm[dur])
	}
	return b.String()
}
