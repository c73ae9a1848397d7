package fusion

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPropertyTrialsShapeAndWeights(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		q := rr.Intn(4) + 1
		m := rr.Intn(8) + 1
		k := rr.Intn(6) + 1
		mats := make([][][]float64, q)
		for s := range mats {
			mats[s] = make([][]float64, m)
			for j := range mats[s] {
				row := make([]float64, k)
				for c := range row {
					row[c] = rr.Norm()
				}
				mats[s][j] = row
			}
		}
		labels := make([]int, m)
		for j := range labels {
			labels[j] = rr.Intn(k)
		}
		var weights []float64
		if rr.Intn(2) == 0 {
			weights = make([]float64, q)
			for s := range weights {
				weights[s] = rr.Float64()
			}
		}
		x, y := Trials(mats, weights, labels, nil)
		if len(x) != m*k || len(y) != m*k {
			return false
		}
		// Trial (j, c) carries feature s = weights[s]·mats[s][j][c] (the
		// raw score without weights), labelled target iff c is j's label.
		for j := 0; j < m; j++ {
			for c := 0; c < k; c++ {
				tr := j*k + c
				if len(x[tr]) != q || (y[tr] == 1) != (labels[j] == c) {
					return false
				}
				for s := 0; s < q; s++ {
					want := mats[s][j][c]
					if weights != nil {
						want = weights[s] * mats[s][j][c]
					}
					if x[tr][s] != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBackendScoresFinite(t *testing.T) {
	r := rng.New(2)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		d := rr.Intn(5) + 2
		k := rr.Intn(3) + 2
		n := 40 * k
		x := make([][]float64, n)
		labels := make([]int, n)
		for i := range x {
			labels[i] = i % k
			row := make([]float64, d)
			for j := range row {
				row[j] = rr.Norm()
			}
			row[labels[i]%d] += 2
			x[i] = row
		}
		b, err := Train(x, labels, k, DefaultConfig())
		if err != nil {
			return false
		}
		for _, xi := range x[:10] {
			for _, s := range b.Score(xi) {
				if math.IsNaN(s) || math.IsInf(s, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertySelectionWeightsNormalized(t *testing.T) {
	r := rng.New(3)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		n := rr.Intn(8) + 1
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rr.Intn(100)
		}
		w := SelectionWeights(counts)
		var sum float64
		for _, v := range w {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
