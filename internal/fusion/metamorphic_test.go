package fusion

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// trainedBackend fits a small 2-class backend on synthetic subsystem
// scores: both subsystems see the same underlying signal plus independent
// noise, which is the correlation structure real fused subsystems have.
func trainedBackend(t *testing.T, nSub int, seed uint64) (*Backend, [][]float64, []int) {
	t.Helper()
	r := rng.New(seed)
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		k := i % 2
		signal := -1.0
		if k == 1 {
			signal = 1.0
		}
		row := make([]float64, nSub)
		for q := range row {
			row[q] = signal + 0.6*r.Norm()
		}
		x = append(x, row)
		y = append(y, k)
	}
	b, err := Train(x, y, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b, x, y
}

func TestScoreMaskedAllPresentBitIdentical(t *testing.T) {
	b, x, _ := trainedBackend(t, 4, 31)
	all := []bool{true, true, true, true}
	for _, xi := range x[:50] {
		want := b.Score(xi)
		got := b.ScoreMasked(xi, all)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("all-present ScoreMasked diverged: %v vs %v", got, want)
			}
		}
	}
}

func TestScoreMaskedEqualsHandImputation(t *testing.T) {
	b, x, _ := trainedBackend(t, 4, 32)
	for _, dead := range []int{0, 2, 3} {
		present := []bool{true, true, true, true}
		present[dead] = false
		for _, xi := range x[:50] {
			// The documented contract: the missing subsystem is imputed with
			// the survivors' mean, then scored exactly as Score would.
			var sum float64
			for q, ok := range present {
				if ok {
					sum += xi[q]
				}
			}
			mean := sum / 3
			filled := append([]float64(nil), xi...)
			filled[dead] = mean
			want := b.Score(filled)
			got := b.ScoreMasked(xi, present)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("dead=%d: masked %v, hand-imputed %v", dead, got, want)
				}
			}
		}
	}
}

func TestScoreMaskedEdgeCases(t *testing.T) {
	b, x, _ := trainedBackend(t, 3, 33)
	if got := b.ScoreMasked(x[0], []bool{false, false, false}); got != nil {
		t.Fatalf("no survivors should return nil, got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mask length mismatch did not panic")
		}
	}()
	b.ScoreMasked(x[0], []bool{true})
}

// TestFusedMonotoneUnderDuplicatedSubsystems: when every subsystem
// reports the same score s (the fully duplicated-subsystem input), the
// fused target log-odds must be monotone nondecreasing in s — duplication
// must not let the backend invert the evidence.
func TestFusedMonotoneUnderDuplicatedSubsystems(t *testing.T) {
	for _, nSub := range []int{2, 4} {
		b, _, _ := trainedBackend(t, nSub, 34)
		prev := math.Inf(-1)
		for s := -3.0; s <= 3.0; s += 0.125 {
			x := make([]float64, nSub)
			for q := range x {
				x[q] = s
			}
			got := b.Score(x)[1]
			if got < prev {
				t.Fatalf("nSub=%d: fused log-odds not monotone: f(%v) = %v < %v", nSub, s, got, prev)
			}
			prev = got
		}
		if !(prev > b.Score(make([]float64, nSub))[1]) {
			t.Fatalf("nSub=%d: fused log-odds flat across the whole range", nSub)
		}
	}
}

// TestTrialsDuplicationLinearity: duplicating every subsystem while
// halving its weight leaves the total evidence per (utterance, language)
// trial unchanged — each duplicated feature pair sums to the original
// feature, and the trial labels do not move.
func TestTrialsDuplicationLinearity(t *testing.T) {
	r := rng.New(35)
	const q, m, k = 3, 7, 4
	mats := make([][][]float64, q)
	labels := make([]int, m)
	for s := range mats {
		mats[s] = make([][]float64, m)
		for j := range mats[s] {
			row := make([]float64, k)
			for c := range row {
				row[c] = r.Norm()
			}
			mats[s][j] = row
			labels[j] = j % k
		}
	}
	weights := []float64{0.5, 0.3, 0.2}
	orig, origY := Trials(mats, weights, labels, nil)

	dup := make([][][]float64, 0, 2*q)
	dupW := make([]float64, 0, 2*q)
	for s := range mats {
		dup = append(dup, mats[s], mats[s])
		dupW = append(dupW, weights[s]/2, weights[s]/2)
	}
	doubled, doubledY := Trials(dup, dupW, labels, nil)
	for tr := range orig {
		if origY[tr] != doubledY[tr] {
			t.Fatalf("trial %d relabelled: %d vs %d", tr, doubledY[tr], origY[tr])
		}
		for s := 0; s < q; s++ {
			sum := doubled[tr][2*s] + doubled[tr][2*s+1]
			if math.Abs(sum-orig[tr][s]) > 1e-12 {
				t.Fatalf("trial %d: duplicated features of subsystem %d sum to %v, want %v", tr, s, sum, orig[tr][s])
			}
		}
	}
}

// TestSelectionWeightsMonotone: more confident trials in a subsystem can
// only raise its weight (and lower everyone else's); weights always sum
// to 1, and a zero total degrades to uniform.
func TestSelectionWeightsMonotone(t *testing.T) {
	base := []int{10, 20, 30}
	w0 := SelectionWeights(base)
	var sum float64
	for _, v := range w0 {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
	bumped := []int{10, 35, 30}
	w1 := SelectionWeights(bumped)
	if !(w1[1] > w0[1]) {
		t.Fatalf("raising subsystem 1's count did not raise its weight: %v vs %v", w1, w0)
	}
	if !(w1[0] < w0[0]) || !(w1[2] < w0[2]) {
		t.Fatalf("other subsystems' weights did not fall: %v vs %v", w1, w0)
	}
	uni := SelectionWeights([]int{0, 0, 0, 0})
	for _, v := range uni {
		if v != 0.25 {
			t.Fatalf("zero counts: %v, want uniform", uni)
		}
	}
}

// TestScoreMaskedMultiLossEqualsHandImputation extends the degraded-
// fusion contract to multiple simultaneous losses — the cluster serving
// tier can lose several shard workers at once, each taking a set of
// subsystems with it. Every missing slot is imputed with the survivors'
// mean, then scored exactly as Score would; this must hold for every
// loss pattern down to a single survivor.
func TestScoreMaskedMultiLossEqualsHandImputation(t *testing.T) {
	const nSub = 4
	b, x, _ := trainedBackend(t, nSub, 36)
	// Every non-trivial mask with at least one survivor and at least two
	// losses: pairs, triples (single survivor).
	for mask := 1; mask < 1<<nSub; mask++ {
		present := make([]bool, nSub)
		nPresent := 0
		for q := range present {
			if mask&(1<<q) != 0 {
				present[q] = true
				nPresent++
			}
		}
		if lost := nSub - nPresent; lost < 2 {
			continue
		}
		for _, xi := range x[:25] {
			var sum float64
			for q, ok := range present {
				if ok {
					sum += xi[q]
				}
			}
			mean := sum / float64(nPresent)
			filled := append([]float64(nil), xi...)
			for q, ok := range present {
				if !ok {
					filled[q] = mean
				}
			}
			want := b.Score(filled)
			got := b.ScoreMasked(xi, present)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("mask %04b: masked %v, hand-imputed %v", mask, got, want)
				}
			}
		}
	}
}

// TestScoreMaskedUniformInputMaskInvariant: when every subsystem reports
// the identical score vector, the survivors' mean equals the missing
// values, so masking any non-empty subset must reproduce the unmasked
// score bit-for-bit — a metamorphic check that imputation adds no
// information of its own.
func TestScoreMaskedUniformInputMaskInvariant(t *testing.T) {
	const nSub = 4
	b, _, _ := trainedBackend(t, nSub, 37)
	for _, s := range []float64{-2.5, -0.25, 0, 1.75} {
		x := make([]float64, nSub)
		for q := range x {
			x[q] = s
		}
		want := b.Score(x)
		for mask := 1; mask < 1<<nSub; mask++ {
			present := make([]bool, nSub)
			for q := range present {
				present[q] = mask&(1<<q) != 0
			}
			got := b.ScoreMasked(x, present)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("s=%v mask %04b: %v, want unmasked %v", s, mask, got, want)
				}
			}
		}
	}
}

// TestScoreMaskedLossOrderIrrelevant: the imputation depends only on
// WHICH subsystems survive, never on any ordering of the losses — two
// shard workers dying in either order must fuse identically.
func TestScoreMaskedLossOrderIrrelevant(t *testing.T) {
	const nSub = 4
	b, x, _ := trainedBackend(t, nSub, 38)
	for _, xi := range x[:25] {
		a := b.ScoreMasked(xi, []bool{true, false, false, true})
		c := b.ScoreMasked(xi, []bool{true, false, false, true})
		for k := range a {
			if a[k] != c[k] {
				t.Fatalf("repeated masked scoring diverged: %v vs %v", a, c)
			}
		}
		// Losing {1} then {2} and losing {2} then {1} end at the same mask;
		// simulate by comparing against a fresh backend call with the same
		// survivor set built in reverse.
		rev := []bool{true, false, false, true}
		d := b.ScoreMasked(append([]float64(nil), xi...), rev)
		for k := range a {
			if a[k] != d[k] {
				t.Fatalf("survivor-set scoring depends on construction order: %v vs %v", a, d)
			}
		}
	}
}

// TestDecideContract: the decision row is the backend's target log-odds
// per language — Score with every row present, ScoreMasked over the
// survivors otherwise — and the mean of the present rows without a
// backend; no present row gives no decision.
func TestDecideContract(t *testing.T) {
	const nSub = 3
	b, _, _ := trainedBackend(t, nSub, 39)
	r := rng.New(40)
	rows := make([][]float64, nSub)
	for q := range rows {
		rows[q] = []float64{r.Norm(), r.Norm(), r.Norm(), r.Norm()}
	}
	x := make([]float64, nSub)
	full := Decide(b, rows)
	partial := Decide(b, [][]float64{rows[0], nil, rows[2]})
	mean := Decide(nil, [][]float64{rows[0], nil, rows[2]})
	for k := range full {
		for q := range rows {
			x[q] = rows[q][k]
		}
		if want := b.Score(x)[1]; full[k] != want {
			t.Fatalf("full battery [%d] = %v, want Score %v", k, full[k], want)
		}
		if want := b.ScoreMasked(x, []bool{true, false, true})[1]; partial[k] != want {
			t.Fatalf("one missing [%d] = %v, want ScoreMasked %v", k, partial[k], want)
		}
		if want := rows[0][k]/2 + rows[2][k]/2; mean[k] != want {
			t.Fatalf("no backend [%d] = %v, want mean %v", k, mean[k], want)
		}
	}
	if got := Decide(b, make([][]float64, nSub)); got != nil {
		t.Fatalf("no rows present: %v, want nil", got)
	}
}
