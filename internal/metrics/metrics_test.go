package metrics

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestEERPerfectSeparation(t *testing.T) {
	var trials []Trial
	for i := 0; i < 50; i++ {
		trials = append(trials, Trial{Score: 1 + float64(i)*0.01, Target: true})
		trials = append(trials, Trial{Score: -1 - float64(i)*0.01, Target: false})
	}
	if eer := EER(trials); eer > 1e-9 {
		t.Fatalf("EER of separable data = %v", eer)
	}
}

func TestEERRandomScoresNearHalf(t *testing.T) {
	r := rng.New(1)
	var trials []Trial
	for i := 0; i < 20000; i++ {
		trials = append(trials, Trial{Score: r.Norm(), Target: i%2 == 0})
	}
	eer := EER(trials)
	if math.Abs(eer-0.5) > 0.02 {
		t.Fatalf("EER of random scores = %v, want ≈0.5", eer)
	}
}

func TestEERKnownOverlap(t *testing.T) {
	// Targets ~ N(1,1), nontargets ~ N(-1,1): EER = Φ(-1) ≈ 0.1587.
	r := rng.New(2)
	var trials []Trial
	for i := 0; i < 50000; i++ {
		trials = append(trials, Trial{Score: r.NormMuSigma(1, 1), Target: true})
		trials = append(trials, Trial{Score: r.NormMuSigma(-1, 1), Target: false})
	}
	eer := EER(trials)
	if math.Abs(eer-0.1587) > 0.01 {
		t.Fatalf("EER = %v, want ≈0.1587", eer)
	}
}

func TestEERInvariantToMonotoneTransform(t *testing.T) {
	r := rng.New(3)
	var a, b []Trial
	for i := 0; i < 5000; i++ {
		s := r.Norm()
		target := r.Bernoulli(0.5)
		if target {
			s += 1
		}
		a = append(a, Trial{Score: s, Target: target})
		b = append(b, Trial{Score: math.Exp(s), Target: target}) // monotone
	}
	if math.Abs(EER(a)-EER(b)) > 1e-12 {
		t.Fatalf("EER not invariant: %v vs %v", EER(a), EER(b))
	}
}

func TestEERDegenerate(t *testing.T) {
	if !math.IsNaN(EER([]Trial{{Score: 1, Target: true}})) {
		t.Fatal("EER without nontargets should be NaN")
	}
	if !math.IsNaN(EER(nil)) {
		t.Fatal("EER of empty set should be NaN")
	}
}

func TestDETMonotone(t *testing.T) {
	r := rng.New(4)
	var trials []Trial
	for i := 0; i < 2000; i++ {
		s := r.Norm()
		target := r.Bernoulli(0.5)
		if target {
			s += 1.5
		}
		trials = append(trials, Trial{Score: s, Target: target})
	}
	pts := DET(trials)
	if len(pts) == 0 {
		t.Fatal("no DET points")
	}
	if pts[0].Pmiss != 1 || pts[0].Pfa != 0 {
		t.Fatalf("DET start = %+v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.Pmiss != 0 || last.Pfa != 1 {
		t.Fatalf("DET end = %+v", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Pfa < pts[i-1].Pfa || pts[i].Pmiss > pts[i-1].Pmiss {
			t.Fatalf("DET not monotone at %d", i)
		}
	}
}

func TestDETBetterSystemDominates(t *testing.T) {
	r := rng.New(5)
	mk := func(sep float64) []Trial {
		var trials []Trial
		for i := 0; i < 5000; i++ {
			target := i%2 == 0
			s := r.Norm()
			if target {
				s += sep
			}
			trials = append(trials, Trial{Score: s, Target: target})
		}
		return trials
	}
	good := EER(mk(3))
	bad := EER(mk(1))
	if good >= bad {
		t.Fatalf("better separation gave worse EER: %v vs %v", good, bad)
	}
}

func TestProbit(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.1587: -1,
		0.8413: 1,
		0.0228: -2,
		0.9772: 2,
	}
	for p, want := range cases {
		if got := Probit(p); math.Abs(got-want) > 0.01 {
			t.Errorf("Probit(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsInf(Probit(0), -1) || !math.IsInf(Probit(1), 1) {
		t.Error("Probit endpoints wrong")
	}
}

func TestCavgPerfectSystem(t *testing.T) {
	var trials []PairTrial
	k := 5
	for m := 0; m < k; m++ {
		for tr := 0; tr < k; tr++ {
			score := -2.0
			if m == tr {
				score = 2.0
			}
			for rep := 0; rep < 10; rep++ {
				trials = append(trials, PairTrial{Model: m, True: tr, Score: score})
			}
		}
	}
	if c := Cavg(trials, k, 0); c > 1e-12 {
		t.Fatalf("Cavg of perfect system = %v", c)
	}
}

func TestCavgAllWrong(t *testing.T) {
	var trials []PairTrial
	k := 3
	for m := 0; m < k; m++ {
		for tr := 0; tr < k; tr++ {
			score := 2.0
			if m == tr {
				score = -2.0
			}
			trials = append(trials, PairTrial{Model: m, True: tr, Score: score})
		}
	}
	// Pmiss = 1 and Pfa = 1 → cost = 0.5 + 0.5 = 1 per language.
	if c := Cavg(trials, k, 0); math.Abs(c-1) > 1e-12 {
		t.Fatalf("Cavg of inverted system = %v", c)
	}
}

func TestCavgHalfForChance(t *testing.T) {
	// Random scores around threshold: Pmiss ≈ Pfa ≈ 0.5 → Cavg ≈ 0.5.
	r := rng.New(6)
	var trials []PairTrial
	k := 4
	for m := 0; m < k; m++ {
		for tr := 0; tr < k; tr++ {
			for rep := 0; rep < 2000; rep++ {
				trials = append(trials, PairTrial{Model: m, True: tr, Score: r.Norm()})
			}
		}
	}
	if c := Cavg(trials, k, 0); math.Abs(c-0.5) > 0.03 {
		t.Fatalf("Cavg of chance system = %v", c)
	}
}

func TestMinCavgNotWorseThanZeroThreshold(t *testing.T) {
	r := rng.New(7)
	var trials []PairTrial
	k := 3
	for m := 0; m < k; m++ {
		for tr := 0; tr < k; tr++ {
			for rep := 0; rep < 200; rep++ {
				s := r.Norm() + 3 // miscalibrated: all scores shifted
				if m == tr {
					s += 2
				}
				trials = append(trials, PairTrial{Model: m, True: tr, Score: s})
			}
		}
	}
	at0 := Cavg(trials, k, 0)
	minC, th := MinCavg(trials, k)
	if minC > at0+1e-12 {
		t.Fatalf("MinCavg %v worse than Cavg@0 %v", minC, at0)
	}
	if th <= 0 {
		t.Fatalf("optimal threshold %v should be positive for shifted scores", th)
	}
}

func TestPairTrialsToDetection(t *testing.T) {
	pts := []PairTrial{
		{Model: 1, True: 1, Score: 0.5},
		{Model: 1, True: 2, Score: -0.5},
	}
	det := PairTrialsToDetection(pts)
	if !det[0].Target || det[1].Target {
		t.Fatal("target flags wrong")
	}
	if det[0].Score != 0.5 || det[1].Score != -0.5 {
		t.Fatal("scores not preserved")
	}
}

func TestCavgEmptyNaN(t *testing.T) {
	if !math.IsNaN(Cavg(nil, 3, 0)) {
		t.Fatal("Cavg of no trials should be NaN")
	}
	minC, _ := MinCavg(nil, 3)
	if !math.IsNaN(minC) {
		t.Fatal("MinCavg of no trials should be NaN")
	}
}

func TestPairwiseEER(t *testing.T) {
	// 3 languages; language 2 is confusable with language 0 but not 1.
	r := rng.New(21)
	var trials []PairTrial
	for i := 0; i < 3000; i++ {
		truth := i % 3
		for model := 0; model < 3; model++ {
			var s float64
			switch {
			case model == truth:
				s = 2 + r.Norm()
			case (model == 0 && truth == 2) || (model == 2 && truth == 0):
				s = 1.5 + r.Norm() // confusable pair
			default:
				s = -2 + r.Norm()
			}
			trials = append(trials, PairTrial{Model: model, True: truth, Score: s})
		}
	}
	m := PairwiseEER(trials, 3)
	if !math.IsNaN(m[0][0]) {
		t.Fatal("diagonal should be NaN")
	}
	if m[0][2] < m[0][1]+0.1 {
		t.Fatalf("confusable pair EER %v not above easy pair %v", m[0][2], m[0][1])
	}
	if m[2][0] < m[2][1]+0.1 {
		t.Fatalf("confusable pair EER %v not above easy pair %v", m[2][0], m[2][1])
	}
}

// TestThresholdAtFASingleNonTarget: with one non-target trial there is no
// second score to interpolate towards, so any 0 < fa < 1 accepts it — the
// threshold sits just below it, as for fa >= 1 — instead of indexing past
// the end.
func TestThresholdAtFASingleNonTarget(t *testing.T) {
	trials := []Trial{{Score: 2, Target: true}, {Score: 0.5}, {Score: 3, Target: true}}
	for _, fa := range []float64{0.01, 0.5, 0.99, 1} {
		th := ThresholdAtFA(trials, fa)
		if !(th < 0.5 && th > 0.5-1e-6) {
			t.Fatalf("fa=%v: threshold %v, want just below the non-target score 0.5", fa, th)
		}
	}
	if th := ThresholdAtFA(trials, 0); !(th > 0.5) {
		t.Fatalf("fa=0: threshold %v accepts the non-target", th)
	}
}
