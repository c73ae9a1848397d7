package metrics

import (
	"encoding/binary"
	"flag"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/rng"
)

// TestMain caps how long the fuzzer minimizes each new interesting
// input at 2 s unless -test.fuzzminimizetime is given: every execution of
// FuzzMinCavgMatchesReferee runs the quadratic referee, and the
// minimizer's byte-range removal pass is quadratic in the input's length,
// so at the default 60 s a short run would spend most of its budget
// minimizing.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.fuzzminimizetime" })
	if !set {
		flag.Set("test.fuzzminimizetime", "2s")
	}
	os.Exit(m.Run())
}

// refMinCavg is the quadratic MinCavg the sweep replaced, kept verbatim as
// its referee: one full Cavg per candidate threshold.
func refMinCavg(trials []PairTrial, numLangs int) (minCost, bestThreshold float64) {
	if len(trials) == 0 {
		return math.NaN(), 0
	}
	scores := make([]float64, 0, len(trials)+1)
	for _, t := range trials {
		scores = append(scores, t.Score)
	}
	sort.Float64s(scores)
	// Candidate thresholds: midpoints between consecutive distinct scores,
	// plus the extremes.
	cands := []float64{scores[0] - 1}
	for i := 1; i < len(scores); i++ {
		if scores[i] != scores[i-1] {
			cands = append(cands, (scores[i]+scores[i-1])/2)
		}
	}
	cands = append(cands, scores[len(scores)-1]+1)
	minCost = math.Inf(1)
	for _, th := range cands {
		if c := Cavg(trials, numLangs, th); c < minCost {
			minCost, bestThreshold = c, th
		}
	}
	return minCost, bestThreshold
}

// checkMinCavg fails unless MinCavg matches the referee bit for bit, cost
// and threshold.
func checkMinCavg(t *testing.T, name string, trials []PairTrial, k int) {
	t.Helper()
	c, th := MinCavg(trials, k)
	rc, rth := refMinCavg(trials, k)
	if math.Float64bits(c) != math.Float64bits(rc) || math.Float64bits(th) != math.Float64bits(rth) {
		t.Fatalf("%s (%d trials, K=%d): MinCavg = (%v, %v), referee (%v, %v)", name, len(trials), k, c, th, rc, rth)
	}
}

// randomPairTrials draws n trials over k languages. Scores come from a
// grid of the given number of levels (ties whenever levels is small), or
// continuous when levels is 0.
func randomPairTrials(r *rng.RNG, n, k, levels int) []PairTrial {
	out := make([]PairTrial, n)
	for i := range out {
		t := PairTrial{Model: r.Intn(k), True: r.Intn(k)}
		if levels > 0 {
			t.Score = float64(r.Intn(levels)) / 4
		} else {
			t.Score = r.Norm()
		}
		if t.Model == t.True {
			t.Score += 0.5
		}
		out[i] = t
	}
	return out
}

func TestMinCavgMatchesReferee(t *testing.T) {
	r := rng.New(45)
	for i := 0; i < 200; i++ {
		k := 1 + r.Intn(6)
		n := 1 + r.Intn(300)
		levels := []int{0, 1, 3, 40}[r.Intn(4)]
		checkMinCavg(t, "random", randomPairTrials(r, n, k, levels), k)
	}

	// A language with no target trials: it adds no term of its own.
	noTarget := randomPairTrials(r, 400, 4, 0)
	for i := range noTarget {
		if noTarget[i].Model == 2 && noTarget[i].True == 2 {
			noTarget[i].True = 3
		}
	}
	// An empty (target, non-target) pair: model 1 never meets language 0.
	emptyPair := randomPairTrials(r, 400, 4, 12)
	for i := range emptyPair {
		if emptyPair[i].Model == 1 && emptyPair[i].True == 0 {
			emptyPair[i].True = 1
		}
	}
	allEqual := randomPairTrials(r, 90, 3, 1)
	cases := map[string]struct {
		trials []PairTrial
		k      int
	}{
		"single target":       {[]PairTrial{{Model: 0, True: 0, Score: 0.25}}, 2},
		"single non-target":   {[]PairTrial{{Model: 0, True: 1, Score: 0.25}}, 2},
		"no targets at all":   {[]PairTrial{{Model: 0, True: 1, Score: 1}, {Model: 1, True: 0, Score: -1}}, 2},
		"all scores equal":    {allEqual, 3},
		"language no targets": {noTarget, 4},
		"empty pair":          {emptyPair, 4},
		"signed zeros": {[]PairTrial{
			{Model: 0, True: 0, Score: math.Copysign(0, -1)}, {Model: 0, True: 1, Score: 0},
			{Model: 1, True: 1, Score: 0}, {Model: 1, True: 0, Score: math.Copysign(0, -1)},
		}, 2},
		// Midpoints of huge scores overflow to ±Inf, so the candidates
		// are not monotone.
		"overflowing midpoints": {[]PairTrial{
			{Model: 0, True: 0, Score: 1.7e308}, {Model: 0, True: 1, Score: 1.5e308},
			{Model: 1, True: 1, Score: -1.6e308}, {Model: 1, True: 0, Score: -1.7e308},
			{Model: 0, True: 0, Score: math.MaxFloat64}, {Model: 1, True: 0, Score: 1},
		}, 2},
		"adjacent floats": {[]PairTrial{
			{Model: 0, True: 0, Score: math.Nextafter(1, 2)}, {Model: 0, True: 1, Score: 1},
			{Model: 1, True: 1, Score: 1}, {Model: 1, True: 0, Score: math.Nextafter(1, 2)},
		}, 2},
	}
	for name, c := range cases {
		checkMinCavg(t, name, c.trials, c.k)
	}
	checkMinCavg(t, "empty", nil, 3)
}

// FuzzMinCavgMatchesReferee builds a finite trial set from the input and
// holds the sweep to the quadratic referee, bit for bit. Each trial takes
// one byte for its (model, true) pair and one byte for its score: a small
// grid value (ties are common) or, with the top bit set, the next eight
// bytes as float64 bits (non-finite ones are skipped).
func FuzzMinCavgMatchesReferee(f *testing.F) {
	f.Add(uint8(3), []byte{0, 4, 1, 6, 4, 2, 8, 8})
	f.Add(uint8(1), []byte{0, 0, 0, 0})
	f.Add(uint8(23), []byte{0, 1, 24, 1, 47, 3, 5, 9, 100, 60})
	huge := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.7e308))
	f.Add(uint8(2), append(append([]byte{0, 0x80}, huge...), append([]byte{1, 0x80}, huge...)...))
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		numLangs := 1 + int(k%24)
		var trials []PairTrial
		for len(data) >= 2 && len(trials) < 256 {
			pair, sb := int(data[0]), data[1]
			data = data[2:]
			tr := PairTrial{Model: pair % numLangs, True: pair / numLangs % numLangs}
			if sb&0x80 == 0 {
				tr.Score = float64(int8(sb<<1)) / 8
			} else {
				if len(data) < 8 {
					break
				}
				tr.Score = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				if math.IsNaN(tr.Score) || math.IsInf(tr.Score, 0) {
					continue
				}
			}
			trials = append(trials, tr)
		}
		checkMinCavg(t, "fuzz", trials, numLangs)
	})
}
