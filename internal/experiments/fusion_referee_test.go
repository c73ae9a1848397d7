package experiments

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fusion"
	"repro/internal/persist"
)

// Frozen referees: the hand-written fusion and calibration loops the
// pipeline used before every trial was built by fusion.Trials and every
// decision row by fusion.Decide, kept verbatim (bar the receiver, and
// refFusionBackend's memo, which lives on the Pipeline) so the shared
// path is checked against them bit for bit.

func refFusePerDuration(p *Pipeline, devMats, testMats [][][]float64, weights []float64) [][]float64 {
	q := len(devMats)
	if weights == nil {
		weights = make([]float64, q)
		for i := range weights {
			weights[i] = 1
		}
	}
	trialFeat := func(mats [][][]float64, j, k int) []float64 {
		x := make([]float64, q)
		for s := 0; s < q; s++ {
			x[s] = weights[s] * mats[s][j][k]
		}
		return x
	}
	fused := make([][]float64, len(testMats[0]))
	for _, dur := range corpus.Durations {
		var devX [][]float64
		var devY []int
		for _, i := range p.DevIdx[dur] {
			for k := 0; k < NumLangs; k++ {
				devX = append(devX, trialFeat(devMats, i, k))
				if p.DevLabels[i] == k {
					devY = append(devY, 1)
				} else {
					devY = append(devY, 0)
				}
			}
		}
		cfg := fusion.DefaultConfig()
		b, err := fusion.Train(devX, devY, 2, cfg)
		if err != nil {
			// Degenerate dev tier: fall back to the weighted mean score
			// (never happens at supported scales, but keeps the harness
			// total).
			for _, j := range p.TestIdx[dur] {
				row := make([]float64, NumLangs)
				for k := range row {
					f := trialFeat(testMats, j, k)
					var s float64
					for _, v := range f {
						s += v
					}
					row[k] = s / float64(q)
				}
				fused[j] = row
			}
			continue
		}
		for _, j := range p.TestIdx[dur] {
			row := make([]float64, NumLangs)
			for k := range row {
				row[k] = b.Score(trialFeat(testMats, j, k))[1]
			}
			fused[j] = row
		}
	}
	return fused
}

func refFusionBackend(p *Pipeline) *fusion.Backend {
	var devX [][]float64
	var devY []int
	for i := range p.DevLabels {
		for k := 0; k < NumLangs; k++ {
			x := make([]float64, len(p.FEs))
			for q := range p.FEs {
				x[q] = p.BaselineDev[q][i][k]
			}
			devX = append(devX, x)
			if p.DevLabels[i] == k {
				devY = append(devY, 1)
			} else {
				devY = append(devY, 0)
			}
		}
	}
	if bk, err := fusion.Train(devX, devY, 2, fusion.DefaultConfig()); err == nil {
		return bk
	}
	return nil
}

func refHeavyDecisionScores(p *Pipeline, perFE [][][]float64) [][]float64 {
	bk := refFusionBackend(p)
	n := len(perFE[0])
	out := make([][]float64, n)
	x := make([]float64, len(perFE))
	for j := 0; j < n; j++ {
		row := make([]float64, NumLangs)
		for k := 0; k < NumLangs; k++ {
			if bk != nil {
				for q := range perFE {
					x[q] = perFE[q][j][k]
				}
				row[k] = bk.Score(x)[1]
			} else {
				for q := range perFE {
					row[k] += perFE[q][j][k] / float64(len(perFE))
				}
			}
		}
		out[j] = row
	}
	return out
}

func refCalibratedVoteScores(p *Pipeline) [][][]float64 {
	out := make([][][]float64, len(p.BaselineScores))
	for q, mat := range p.BaselineScores {
		out[q] = make([][]float64, len(mat))
		for _, dur := range corpus.Durations {
			shifts := voteShiftsForTier(p.BaselineDev[q], p.DevLabels, p.DevIdx[dur], VoteCalibrationFA)
			for _, j := range p.TestIdx[dur] {
				row := mat[j]
				nr := make([]float64, len(row))
				for k, v := range row {
					nr[k] = v - shifts[k]
				}
				out[q][j] = nr
			}
		}
	}
	return out
}

// sameMatrix requires got and want to match in shape and float64 bits.
func sameMatrix(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, referee %d", what, len(got), len(want))
	}
	for j := range want {
		if len(got[j]) != len(want[j]) {
			t.Fatalf("%s: row %d has %d scores, referee %d", what, j, len(got[j]), len(want[j]))
		}
		for k := range want[j] {
			if math.Float64bits(got[j][k]) != math.Float64bits(want[j][k]) {
				t.Fatalf("%s[%d][%d] = %v, referee %v (not bit-identical)", what, j, k, got[j][k], want[j][k])
			}
		}
	}
}

// TestFusionMatchesFrozenReferees pins the shared fusion path to the
// loops it replaced: Table 4's unweighted and Eq. 15-weighted fusions,
// the exported bundle's backend (sealed bytes), the cascade's heavy rows
// and the Eq. 13 vote scores must all be bit-identical.
func TestFusionMatchesFrozenReferees(t *testing.T) {
	p := sharedPipeline(t)

	sameMatrix(t, "baseline fusion",
		p.fusePerDuration(p.BaselineDev, p.BaselineScores, nil),
		refFusePerDuration(p, p.BaselineDev, p.BaselineScores, nil))
	dev, test, weights := p.dbaSubsystems(3)
	sameMatrix(t, "weighted DBA fusion",
		p.fusePerDuration(dev, test, weights),
		refFusePerDuration(p, dev, test, weights))

	got, err := persist.MarshalSealed(p.fusionBackend())
	if err != nil {
		t.Fatal(err)
	}
	want, err := persist.MarshalSealed(refFusionBackend(p))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bundle fusion backend bytes differ from the referee's")
	}

	for _, mats := range []struct {
		name string
		m    [][][]float64
	}{{"heavy dev rows", p.BaselineDev}, {"heavy test rows", p.BaselineScores}} {
		sameMatrix(t, mats.name, fusion.DecideAll(p.fusionBackend(), mats.m), refHeavyDecisionScores(p, mats.m))
	}

	ref := refCalibratedVoteScores(p)
	for q := range ref {
		sameMatrix(t, "vote scores", p.VoteScores[q], ref[q])
	}
}
