package experiments

import (
	"repro/internal/adapt"
	"repro/internal/synthlang"
)

// refereeSetSize bounds the frozen referee set the canary gate rescores
// on every promotion attempt and probe — big enough to catch a torn or
// mis-trained battery, small enough to keep the probe cheap.
const refereeSetSize = 24

// BuildAdaptSet freezes everything online self-training needs from a
// trained pipeline (see adapt.Set): the training supervectors (DBA-M2's
// Tr), the pooled dev split as the holdout (labels included — the EER
// gate's frozen benchmark), per-front-end vote-calibration shifts pooled
// over all dev durations (the same ThresholdAtFA machinery the offline
// tables use, at VoteCalibrationFA), and the export-time models' pinned
// referee scores.
//
// All vectors go in verbatim from the pipeline caches — they are already
// TFLLR-scaled, which for the unprojected bundles ExportModels writes is
// exactly the scoring weight space — so a candidate retrained under M2
// with the frozen set alone reproduces the export models bit-for-bit.
func (p *Pipeline) BuildAdaptSet() *adapt.Set {
	nDev := len(p.DevLabels)
	nRef := refereeSetSize
	if nRef > nDev {
		nRef = nDev
	}
	devSplit := p.Corpus.AllDev()
	s := &adapt.Set{
		FormatVersion: adapt.SetFormatVersion,
		Languages:     append([]string(nil), synthlang.LanguageNames...),
		SVM:           p.SVMOptions,
		Seed:          p.Seed,
		TrainLabels:   append([]int(nil), p.TrainLabels...),
		HoldoutLabels: append([]int(nil), p.DevLabels...),
	}
	for q := range p.FEs {
		ref := make([][]float64, nRef)
		for i := 0; i < nRef; i++ {
			ref[i] = append([]float64(nil), p.BaselineDev[q][i]...)
		}
		s.FrontEnds = append(s.FrontEnds, adapt.SetFrontEnd{
			Name:          p.FEs[q].Name,
			Dim:           p.Data[q].Dim,
			Train:         p.Data[q].Train,
			Holdout:       p.Feats[q].Vectors(devSplit),
			VoteShifts:    p.pooledVoteShifts(q),
			RefereeScores: ref,
		})
	}
	return s
}
