package cascade

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// Fixture: 3 toy languages over a 12-phone inventory, each biased toward
// its own phone subset, so the PRLM separates them with realistic (not
// perfect) margins.

const (
	fxPhones = 12
	fxLangs  = 3
)

func genSeq(r *rng.RNG, lang, length int) []int {
	seq := make([]int, length)
	for i := range seq {
		if r.Float64() < 0.7 {
			seq[i] = lang*4 + r.Intn(4)
		} else {
			seq[i] = r.Intn(fxPhones)
		}
	}
	return seq
}

func fixtureModel(t *testing.T, target float64) (*Model, []DevExample) {
	t.Helper()
	r := rng.New(7)
	train := make([][][]int, fxLangs)
	for k := 0; k < fxLangs; k++ {
		for i := 0; i < 30; i++ {
			train[k] = append(train[k], genSeq(r, k, 80))
		}
	}
	var dev []DevExample
	for k := 0; k < fxLangs; k++ {
		for i := 0; i < 20; i++ {
			dev = append(dev, DevExample{Seq: genSeq(r, k, 120), Label: k, Tier: 0})
			dev = append(dev, DevExample{Seq: genSeq(r, k, 12), Label: k, Tier: 1})
		}
	}
	m, err := Train("FE0", fxPhones, train, []string{"long", "short"}, dev, TrainConfig{TargetAccuracy: target})
	if err != nil {
		t.Fatal(err)
	}
	return m, dev
}

func TestTrainValidatesAndMapsTiers(t *testing.T) {
	m, _ := fixtureModel(t, 0)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Tiers[0].Name; got != "long" {
		t.Fatalf("tier 0 = %q", got)
	}
	if m.Tiers[1].MinPhones != 0 {
		t.Fatalf("last tier MinPhones = %d, want 0", m.Tiers[1].MinPhones)
	}
	// The boundary sits between the two length populations.
	if b := m.Tiers[0].MinPhones; b <= 12 || b >= 120 {
		t.Fatalf("tier boundary %d outside (12, 120)", b)
	}
	if ti := m.TierFor(120); ti != 0 {
		t.Fatalf("TierFor(120) = %d", ti)
	}
	if ti := m.TierFor(12); ti != 1 {
		t.Fatalf("TierFor(12) = %d", ti)
	}
	if ti := m.TierFor(0); ti != 1 {
		t.Fatalf("TierFor(0) = %d", ti)
	}
}

func TestDecideThresholdEndpoints(t *testing.T) {
	m, dev := fixtureModel(t, 0)
	for _, ex := range dev {
		if d := m.Decide(ex.Seq, math.Inf(-1)); d.Exit {
			t.Fatalf("threshold -Inf exited (margin %g, required %g)", d.Margin, d.Required)
		}
		if d := m.Decide(ex.Seq, math.Inf(1)); !d.Exit {
			t.Fatalf("threshold +Inf escalated (margin %g, required %g)", d.Margin, d.Required)
		} else if d.Reason != ReasonHighMargin {
			t.Fatalf("exit reason %q", d.Reason)
		}
	}
	// The empty sequence follows the same endpoint contract.
	if d := m.Decide(nil, math.Inf(1)); !d.Exit {
		t.Fatal("empty sequence escalated at +Inf")
	}
	if d := m.Decide(nil, math.Inf(-1)); d.Exit {
		t.Fatal("empty sequence exited at -Inf")
	}
}

func TestDecideMonotoneInThresholdAndMargin(t *testing.T) {
	m, dev := fixtureModel(t, 0)
	thresholds := []float64{math.Inf(-1), -1, -0.01, 0, 0.01, 1, math.Inf(1)}
	for _, ex := range dev {
		prev := false
		for _, th := range thresholds {
			d := m.Decide(ex.Seq, th)
			if prev && !d.Exit {
				t.Fatalf("exit not monotone in threshold at %g", th)
			}
			prev = d.Exit
		}
	}
	// At a fixed threshold, within one tier, the exit set is upward-closed
	// in the margin.
	for _, th := range []float64{-0.02, 0, 0.02} {
		perTier := make(map[string][]Decision)
		for _, ex := range dev {
			d := m.Decide(ex.Seq, th)
			perTier[d.Tier] = append(perTier[d.Tier], d)
		}
		for tier, ds := range perTier {
			sort.Slice(ds, func(i, j int) bool { return ds[i].Margin < ds[j].Margin })
			seenExit := false
			for _, d := range ds {
				if seenExit && !d.Exit {
					t.Fatalf("tier %s threshold %g: exit not monotone in margin", tier, th)
				}
				seenExit = seenExit || d.Exit
			}
		}
	}
}

func TestCalibrationMeetsAccuracyTarget(t *testing.T) {
	const target = 0.95
	m, dev := fixtureModel(t, target)
	correct, exited := make(map[string]int), make(map[string]int)
	for _, ex := range dev {
		d := m.Decide(ex.Seq, 0)
		if !d.Exit {
			continue
		}
		exited[d.Tier]++
		if d.Best == ex.Label {
			correct[d.Tier]++
		}
	}
	for tier, n := range exited {
		if acc := float64(correct[tier]) / float64(n); acc < target {
			t.Fatalf("tier %s: exit accuracy %.3f below target %.2f (n=%d)", tier, acc, target, n)
		}
	}
	// The long tier must exit a nontrivial fraction — the whole point of
	// the cascade — and both tiers assign the fixture correctly enough.
	if exited["long"] == 0 {
		t.Fatal("long tier never exits at the default threshold")
	}
}

func TestScaleCalibrationMatchesMoments(t *testing.T) {
	r := rng.New(9)
	train := make([][][]int, fxLangs)
	for k := 0; k < fxLangs; k++ {
		for i := 0; i < 20; i++ {
			train[k] = append(train[k], genSeq(r, k, 60))
		}
	}
	// Heavy scores with well-separated class-conditional locations
	// (targets near +25, nontargets near −15), mimicking the heavy
	// backend's log-odds geometry on a scale far from tier-1 LLRs.
	var dev []DevExample
	for k := 0; k < fxLangs; k++ {
		for i := 0; i < 15; i++ {
			seq := genSeq(r, k, 60)
			heavy := make([]float64, fxLangs)
			for j := range heavy {
				if j == k {
					heavy[j] = 25 + 2*r.Norm()
				} else {
					heavy[j] = -15 + 2*r.Norm()
				}
			}
			dev = append(dev, DevExample{Seq: seq, Label: k, Tier: 0, Heavy: heavy})
		}
	}
	m, err := Train("FE0", fxPhones, train, []string{"all"}, dev, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The class-conditional maps must land mapped tier-1 scores near the
	// heavy class locations: winning languages around +25, the rest
	// around −15.
	var tgtSum, ntSum float64
	var tgtN, ntN int
	for _, ex := range dev {
		d := m.Decide(ex.Seq, 0)
		for k, s := range d.Scores {
			if k == d.Best {
				tgtSum += s
				tgtN++
			} else {
				ntSum += s
				ntN++
			}
		}
	}
	tgtMean, ntMean := tgtSum/float64(tgtN), ntSum/float64(ntN)
	if tgtMean < 15 || tgtMean > 35 {
		t.Fatalf("mapped target location %.1f, want near +25", tgtMean)
	}
	if ntMean < -25 || ntMean > -5 {
		t.Fatalf("mapped nontarget location %.1f, want near -15", ntMean)
	}
	// Calibrated scores must preserve the argmax (positive slopes,
	// target location above nontarget).
	seq := genSeq(r, 1, 60)
	d := m.Decide(seq, 0)
	raw := m.LM.Score(seq)
	bestRaw := 0
	for k, v := range raw {
		if v > raw[bestRaw] {
			bestRaw = k
		}
	}
	if d.Best != bestRaw {
		t.Fatalf("calibration changed the argmax: %d vs %d", d.Best, bestRaw)
	}
	bestMapped := 0
	for k, v := range d.Scores {
		if v > d.Scores[bestMapped] {
			bestMapped = k
		}
	}
	if bestMapped != d.Best {
		t.Fatalf("mapped scores changed the argmax: %d vs %d", bestMapped, d.Best)
	}
}

func TestTrainErrors(t *testing.T) {
	r := rng.New(3)
	train := make([][][]int, fxLangs)
	for k := 0; k < fxLangs; k++ {
		train[k] = append(train[k], genSeq(r, k, 40))
	}
	dev := []DevExample{{Seq: genSeq(r, 0, 40), Label: 0, Tier: 0}}
	if _, err := Train("", fxPhones, train, []string{"a"}, dev, TrainConfig{}); err == nil {
		t.Fatal("empty front-end accepted")
	}
	if _, err := Train("FE0", fxPhones, train, nil, dev, TrainConfig{}); err == nil {
		t.Fatal("no tiers accepted")
	}
	if _, err := Train("FE0", fxPhones, train, []string{"a", "b"}, dev, TrainConfig{}); err == nil {
		t.Fatal("tier without dev examples accepted")
	}
	if _, err := Train("FE0", fxPhones, train, []string{"a"},
		[]DevExample{{Seq: genSeq(r, 0, 40), Tier: 5}}, TrainConfig{}); err == nil {
		t.Fatal("out-of-range tier index accepted")
	}
}

func TestValidateRejectsCorruptModels(t *testing.T) {
	m, _ := fixtureModel(t, 0)
	check := func(name string, mutate func(c Model) Model) {
		bad := mutate(*m)
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	check("no front-end", func(c Model) Model { c.FrontEnd = ""; return c })
	check("no LM", func(c Model) Model { c.LM = nil; return c })
	check("no tiers", func(c Model) Model { c.Tiers = nil; return c })
	check("phone mismatch", func(c Model) Model { c.NumPhones = 99; return c })
	check("nonzero last tier", func(c Model) Model {
		c.Tiers = append([]TierPolicy(nil), c.Tiers...)
		c.Tiers[len(c.Tiers)-1].MinPhones = 3
		return c
	})
	check("duplicate tier", func(c Model) Model {
		c.Tiers = append([]TierPolicy(nil), c.Tiers...)
		c.Tiers[1].Name = c.Tiers[0].Name
		return c
	})
	check("unordered tiers", func(c Model) Model {
		c.Tiers = append([]TierPolicy(nil), c.Tiers...)
		c.Tiers[0].MinPhones = 0
		return c
	})
	check("NaN margin", func(c Model) Model {
		c.Tiers = append([]TierPolicy(nil), c.Tiers...)
		c.Tiers[0].RequiredMargin = math.NaN()
		return c
	})
	check("bad target scale", func(c Model) Model {
		c.Tiers = append([]TierPolicy(nil), c.Tiers...)
		c.Tiers[0].TargetA = -1
		return c
	})
	check("bad nontarget scale", func(c Model) Model {
		c.Tiers = append([]TierPolicy(nil), c.Tiers...)
		c.Tiers[0].NontargetA = 0
		return c
	})
}
