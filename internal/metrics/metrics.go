// Package metrics implements the paper's evaluation measures: equal error
// rate (EER) over detection trials, the NIST LRE 2009 average cost Cavg,
// and detection-error-tradeoff (DET) curves (Fig. 3).
//
// A detection trial pairs a system score with whether the trial's model
// matched the true language (a "target" trial). EER is the operating point
// where the miss rate equals the false-alarm rate. Cavg follows the LRE09
// evaluation plan: with C_miss = C_fa = 1 and P_target = 0.5,
//
//	Cavg = (1/K)·Σ_LT [ P_tar·P_miss(LT) + (1−P_tar)/(K−1)·Σ_LN P_fa(LT,LN) ].
package metrics

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Trial is one detection trial: a score and whether it is a target trial.
type Trial struct {
	Score  float64
	Target bool
}

// EER returns the equal error rate of the trial set, in [0, 1], using
// linear interpolation between the ROC steps where miss and false-alarm
// rates cross. It returns NaN when either class is empty.
func EER(trials []Trial) float64 {
	eer, _ := EERPoint(trials)
	return eer
}

// EERPoint returns the equal error rate together with the score threshold
// at the crossing point (scores above the threshold are accepted). The
// threshold is what per-model score calibration subtracts so that the
// Eq. 13 vote criterion operates at each model's equal-error operating
// point.
func EERPoint(trials []Trial) (eer, threshold float64) {
	nTar, nNon := 0, 0
	for _, t := range trials {
		if t.Target {
			nTar++
		} else {
			nNon++
		}
	}
	if nTar == 0 || nNon == 0 {
		return math.NaN(), 0
	}
	sorted := append([]Trial(nil), trials...)
	// Descending by score: sweeping the threshold downward accepts trials
	// one at a time.
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })

	// At the strictest threshold everything is rejected: Pmiss=1, Pfa=0.
	missed := nTar
	falseAlarms := 0
	prevMiss, prevFa := 1.0, 0.0
	prevScore := sorted[0].Score
	for _, t := range sorted {
		if t.Target {
			missed--
		} else {
			falseAlarms++
		}
		pm := float64(missed) / float64(nTar)
		pf := float64(falseAlarms) / float64(nNon)
		if pm <= pf {
			// Crossed; interpolate linearly between the previous point
			// (prevFa, prevMiss) and this one (pf, pm) to find where the
			// miss and false-alarm rates meet.
			d1 := prevMiss - prevFa // ≥ 0 before the crossing
			d2 := pf - pm           // ≥ 0 after the crossing
			th := (prevScore + t.Score) / 2
			if d1+d2 <= 0 {
				return (pm + pf) / 2, th
			}
			w := d1 / (d1 + d2)
			return prevMiss + w*(pm-prevMiss), th
		}
		prevMiss, prevFa = pm, pf
		prevScore = t.Score
	}
	return prevMiss, sorted[len(sorted)-1].Score // never crossed (degenerate)
}

// ThresholdAtFA returns the score threshold at which the false-alarm rate
// equals fa (interpolated between adjacent non-target scores). Scores
// above the threshold are accepted. It returns NaN without non-target
// trials.
func ThresholdAtFA(trials []Trial, fa float64) float64 {
	var non []float64
	for _, t := range trials {
		if !t.Target {
			non = append(non, t.Score)
		}
	}
	if len(non) == 0 {
		return math.NaN()
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(non)))
	if fa <= 0 {
		return non[0] + 1e-9
	}
	if fa >= 1 || len(non) == 1 {
		// Accept every non-target. With a single one there is no next
		// score to interpolate towards, and any 0 < fa < 1 rounds up to it.
		return non[len(non)-1] - 1e-9
	}
	// Accepting the top ceil(fa·n) non-targets yields rate ≥ fa; place the
	// threshold between that score and the next.
	pos := fa * float64(len(non))
	k := int(pos)
	if k >= len(non)-1 {
		k = len(non) - 1
	}
	if k == 0 {
		return (non[0] + non[1]) / 2
	}
	return (non[k-1] + non[k]) / 2
}

// DETPoint is one operating point of a DET curve.
type DETPoint struct {
	Pfa, Pmiss float64
}

// DET returns the detection error tradeoff curve as (Pfa, Pmiss) pairs
// swept over all thresholds (one point per accepted trial plus endpoints).
func DET(trials []Trial) []DETPoint {
	nTar, nNon := 0, 0
	for _, t := range trials {
		if t.Target {
			nTar++
		} else {
			nNon++
		}
	}
	if nTar == 0 || nNon == 0 {
		return nil
	}
	sorted := append([]Trial(nil), trials...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	points := make([]DETPoint, 0, len(sorted)+1)
	missed, falseAlarms := nTar, 0
	points = append(points, DETPoint{Pfa: 0, Pmiss: 1})
	for _, t := range sorted {
		if t.Target {
			missed--
		} else {
			falseAlarms++
		}
		points = append(points, DETPoint{
			Pfa:   float64(falseAlarms) / float64(nNon),
			Pmiss: float64(missed) / float64(nTar),
		})
	}
	return points
}

// Probit is the standard-normal quantile function used for DET plot axes,
// computed with the Acklam rational approximation (|error| < 1.2e-9).
func Probit(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// PairTrial is a language-detection trial against a specific language
// model: Model is the hypothesized target language index, True the trial's
// actual language, Score the system's detection score.
type PairTrial struct {
	Model int
	True  int
	Score float64
}

// Cavg computes the NIST LRE 2009 average detection cost at the given
// hard-decision threshold, with C_miss = C_fa = 1 and P_target = 0.5.
// numLangs is the closed-set size K.
func Cavg(trials []PairTrial, numLangs int, threshold float64) float64 {
	const pTarget = 0.5
	missCnt := make([]int, numLangs)
	missTot := make([]int, numLangs)
	// faCnt[LT][LN], faTot[LT][LN].
	faCnt := make([][]int, numLangs)
	faTot := make([][]int, numLangs)
	for i := range faCnt {
		faCnt[i] = make([]int, numLangs)
		faTot[i] = make([]int, numLangs)
	}
	for _, t := range trials {
		if t.Model == t.True {
			missTot[t.Model]++
			if t.Score <= threshold {
				missCnt[t.Model]++
			}
		} else {
			faTot[t.Model][t.True]++
			if t.Score > threshold {
				faCnt[t.Model][t.True]++
			}
		}
	}
	var cavg float64
	langsCounted := 0
	for lt := 0; lt < numLangs; lt++ {
		if missTot[lt] == 0 {
			continue
		}
		langsCounted++
		pMiss := float64(missCnt[lt]) / float64(missTot[lt])
		var faSum float64
		faLangs := 0
		for ln := 0; ln < numLangs; ln++ {
			if ln == lt || faTot[lt][ln] == 0 {
				continue
			}
			faSum += float64(faCnt[lt][ln]) / float64(faTot[lt][ln])
			faLangs++
		}
		cost := pTarget * pMiss
		if faLangs > 0 {
			cost += (1 - pTarget) * faSum / float64(faLangs)
		}
		cavg += cost
	}
	if langsCounted == 0 {
		return math.NaN()
	}
	return cavg / float64(langsCounted)
}

// MinCavg searches the candidate thresholds — one below every score, the
// midpoints between consecutive distinct scores and one above every
// score — for the minimal Cavg, and returns it with the first minimizing
// threshold. Scores must be finite. Each candidate's cost has the bits
// Cavg would give at that threshold, but the search is one sweep: the
// trials are sorted once and, as the threshold rises past a trial, the
// trial moves from accepted to rejected, updating the integer counts and
// the cost term of its model only. A set without target trials has no
// defined cost at any threshold and returns (+Inf, 0).
func MinCavg(trials []PairTrial, numLangs int) (minCost, bestThreshold float64) {
	if len(trials) == 0 {
		return math.NaN(), 0
	}
	s := newCavgSweep(trials, numLangs)
	minCost = math.Inf(1)
	if s.langsCounted == 0 {
		return minCost, 0
	}
	try := func(th float64) {
		if c := s.costAt(th); c < minCost {
			minCost, bestThreshold = c, th
		}
	}
	sorted := s.sorted
	try(sorted[0].Score - 1)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Score != sorted[i-1].Score {
			try((sorted[i].Score + sorted[i-1].Score) / 2)
		}
	}
	try(sorted[len(sorted)-1].Score + 1)
	return minCost, bestThreshold
}

// cavgSweep holds Cavg's counts at one threshold. Trials sorted[:rejected]
// score at or below it: their targets are misses, their non-targets are
// not false alarms.
type cavgSweep struct {
	k        int
	sorted   []PairTrial // ascending by score
	rejected int
	// missCnt/missTot by target language; faCnt/faTot row-major by
	// (target, non-target) pair.
	missCnt, missTot []int
	faCnt, faTot     []int
	// terms[lt] is model lt's cost term at the current threshold, valid
	// where missTot[lt] > 0.
	terms        []float64
	langsCounted int
}

func newCavgSweep(trials []PairTrial, k int) *cavgSweep {
	s := &cavgSweep{
		k:       k,
		sorted:  slices.Clone(trials),
		missCnt: make([]int, k),
		missTot: make([]int, k),
		faCnt:   make([]int, k*k),
		faTot:   make([]int, k*k),
		terms:   make([]float64, k),
	}
	slices.SortFunc(s.sorted, func(a, b PairTrial) int { return cmp.Compare(a.Score, b.Score) })
	// Below every score everything is accepted: no misses, every
	// non-target a false alarm.
	for _, t := range trials {
		if t.Model == t.True {
			s.missTot[t.Model]++
		} else {
			s.faTot[t.Model*k+t.True]++
			s.faCnt[t.Model*k+t.True]++
		}
	}
	for lt := 0; lt < k; lt++ {
		if s.missTot[lt] > 0 {
			s.langsCounted++
			s.term(lt)
		}
	}
	return s
}

// costAt moves the threshold to th and returns Cavg there. Candidates
// normally rise, but a midpoint that overflows to ±Inf can fall back, so
// trials move in both directions.
func (s *cavgSweep) costAt(th float64) float64 {
	for s.rejected < len(s.sorted) && s.sorted[s.rejected].Score <= th {
		s.move(s.sorted[s.rejected], 1)
		s.rejected++
	}
	for s.rejected > 0 && s.sorted[s.rejected-1].Score > th {
		s.rejected--
		s.move(s.sorted[s.rejected], -1)
	}
	var cavg float64
	for lt := 0; lt < s.k; lt++ {
		if s.missTot[lt] == 0 {
			continue
		}
		cavg += s.terms[lt]
	}
	return cavg / float64(s.langsCounted)
}

// move rejects trial t (d = 1) or accepts it again (d = -1).
func (s *cavgSweep) move(t PairTrial, d int) {
	if t.Model == t.True {
		s.missCnt[t.Model] += d
	} else {
		s.faCnt[t.Model*s.k+t.True] -= d
	}
	if s.missTot[t.Model] > 0 {
		s.term(t.Model)
	}
}

// term recomputes model lt's cost term with Cavg's expression, so every
// cost the sweep sums has Cavg's bits.
func (s *cavgSweep) term(lt int) {
	const pTarget = 0.5
	pMiss := float64(s.missCnt[lt]) / float64(s.missTot[lt])
	var faSum float64
	faLangs := 0
	for ln := 0; ln < s.k; ln++ {
		if ln == lt || s.faTot[lt*s.k+ln] == 0 {
			continue
		}
		faSum += float64(s.faCnt[lt*s.k+ln]) / float64(s.faTot[lt*s.k+ln])
		faLangs++
	}
	cost := pTarget * pMiss
	if faLangs > 0 {
		cost += (1 - pTarget) * faSum / float64(faLangs)
	}
	s.terms[lt] = cost
}

// PairTrialsToDetection flattens language-pair trials into detection
// trials for EER/DET computation (every pair trial is a detection trial
// with target = Model==True), the standard pooled LRE scoring.
func PairTrialsToDetection(trials []PairTrial) []Trial {
	out := make([]Trial, len(trials))
	for i, t := range trials {
		out[i] = Trial{Score: t.Score, Target: t.Model == t.True}
	}
	return out
}

// PairwiseEER computes the language-pair confusion structure: entry
// [a][b] (a ≠ b) is the EER of detecting language a against impostor
// language b only — target trials are (model a, true a), non-target trials
// are (model a, true b). Diagonal entries are NaN. Confusable pairs
// (Hindi/Urdu, Bosnian/Croatian, …) surface as high off-diagonal EERs.
func PairwiseEER(trials []PairTrial, numLangs int) [][]float64 {
	out := make([][]float64, numLangs)
	byPair := make(map[[2]int][]Trial)
	for _, t := range trials {
		if t.Model == t.True {
			// Target trial for model t.Model: applies to every impostor row.
			for b := 0; b < numLangs; b++ {
				if b != t.Model {
					key := [2]int{t.Model, b}
					byPair[key] = append(byPair[key], Trial{Score: t.Score, Target: true})
				}
			}
		} else {
			key := [2]int{t.Model, t.True}
			byPair[key] = append(byPair[key], Trial{Score: t.Score, Target: false})
		}
	}
	for a := 0; a < numLangs; a++ {
		out[a] = make([]float64, numLangs)
		for b := 0; b < numLangs; b++ {
			if a == b {
				out[a][b] = math.NaN()
				continue
			}
			out[a][b] = EER(byPair[[2]int{a, b}])
		}
	}
	return out
}
