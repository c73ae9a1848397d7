package hmm

import (
	"repro/internal/rng"
)

// Realign performs Viterbi-realignment training, the standard refinement
// loop after a flat start (the paper's GMM-HMM recipe: maximum-likelihood
// training, then the ML model generates state-aligned transcriptions for
// the next round): each iteration force-aligns every utterance's phone
// transcription with the current model, then retrains the per-state GMM
// emissions from the new segment boundaries.
//
// utterFrames[i] are utterance i's feature frames, utterPhones[i] its
// phone transcription (not segments — alignment finds the boundaries).
// Utterances whose alignment fails (shorter than their transcription) keep
// their previous segmentation. Returns the refined emissions; the caller
// rebuilds its Model around them.
func Realign(r *rng.RNG, numPhones int, utterFrames [][][]float64, utterPhones [][]int,
	initialSegs [][]Segment, numComp, emIters, realignIters int) (*GMMEmissions, [][]Segment) {

	if len(utterFrames) != len(utterPhones) || len(utterFrames) != len(initialSegs) {
		panic("hmm: Realign input length mismatch")
	}
	segs := make([][]Segment, len(initialSegs))
	copy(segs, initialSegs)

	emit := TrainGMMEmissions(r.Split(0), numPhones, utterFrames, segs, numComp, emIters)
	for it := 1; it <= realignIters; it++ {
		model := NewModel(numPhones, emit, 7)
		changed := false
		for i := range utterFrames {
			newSegs, err := model.ForcedAlign(utterFrames[i], utterPhones[i])
			if err != nil {
				continue
			}
			if !segsEqual(newSegs, segs[i]) {
				changed = true
			}
			segs[i] = newSegs
		}
		emit = TrainGMMEmissions(r.Split(uint64(it)), numPhones, utterFrames, segs, numComp, emIters)
		if !changed {
			break
		}
	}
	return emit, segs
}

func segsEqual(a, b []Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
