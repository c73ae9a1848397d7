package experiments

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/persist"
	"repro/internal/vsm"
)

// TestCompressTinyEndToEnd runs the compression path at tiny scale: the
// compressed bundle must validate, survive a sealed round trip, and
// score the pooled test set exactly like the offline compressed system
// (the offline/online consistency contract — both sides project through
// the same packed basis).
func TestCompressTinyEndToEnd(t *testing.T) {
	p := BuildPipeline(ScaleTiny, 5)
	const rank = 4
	t.Run("int8", func(t *testing.T) {
		cs, err := p.Compress(rank)
		if err != nil {
			t.Fatal(err)
		}
		b := cs.BuildBundle(p)
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "bundle.gob")
		if err := persist.Save(path, b); err != nil {
			t.Fatal(err)
		}
		var lb persist.Bundle
		if err := persist.Load(path, &lb); err != nil {
			t.Fatal(err)
		}
		if err := lb.Validate(); err != nil {
			t.Fatal(err)
		}
		for q := range lb.FrontEnds {
			fe := &lb.FrontEnds[q]
			if fe.WeightDim() != rank {
				t.Fatalf("front-end %s weight dim %d, want rank %d", fe.Name, fe.WeightDim(), rank)
			}
			// The loaded bundle's projection+kernel reproduce the offline
			// compressed scores bit-for-bit (TFLLR is already applied to
			// the pipeline's cached test vectors).
			for j, x := range p.Data[q].Test {
				got := fe.Scores(fe.Proj.Apply(x))
				want := cs.TestScores[q][j]
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("front-end %s utt %d class %d: served %v, offline %v",
							fe.Name, j, k, got[k], want[k])
					}
				}
				if j >= 3 {
					break // three utterances per FE pin the path
				}
			}
		}
		if b.Fusion == nil {
			t.Fatal("compressed bundle shipped without a fusion backend")
		}
		if b.Cascade != nil {
			t.Fatal("compressed bundle should omit the cascade")
		}
	})
}

// TestCompressEvalTiny exercises the sweep end to end on a minimal grid:
// the report must carry a baseline, one point per cell with finite
// quality numbers, and coherent size accounting.
func TestCompressEvalTiny(t *testing.T) {
	p := BuildPipeline(ScaleTiny, 7)
	rep, err := RunCompressEval(p, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.BundleBytes <= 0 {
		t.Fatalf("degenerate baseline: %+v", rep.Baseline)
	}
	if len(rep.Points) != 1 {
		t.Fatalf("%d points, want 1", len(rep.Points))
	}
	pt := rep.Points[0]
	if pt.Rank != 3 {
		t.Fatalf("point identity %+v", pt)
	}
	if pt.BundleBytes <= 0 || pt.BundleBytes >= rep.Baseline.BundleBytes {
		t.Fatalf("int8 bundle %d bytes vs baseline %d: expected smaller", pt.BundleBytes, rep.Baseline.BundleBytes)
	}
	if pt.SizeReduction <= 1 {
		t.Fatalf("size reduction %v, want > 1", pt.SizeReduction)
	}
	for _, k := range []string{"30s", "10s", "3s"} {
		eer, ok := pt.FusedEER[k]
		if !ok || math.IsNaN(eer) || math.IsInf(eer, 0) {
			t.Fatalf("tier %s: fused EER %v (present %v), want finite", k, eer, ok)
		}
		if d, ok := pt.DeltaEER[k]; !ok || math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("tier %s: ΔEER %v (present %v), want finite", k, d, ok)
		}
	}
}

// TestCompressedOrderPreservationMediumSeed42 is the int8 referee at the
// golden operating conditions: on the medium seed-42 pipeline, the int8
// kernel must rank languages identically to the float64 oracle scoring
// the explicitly dequantized weights — per-front-end argmax and the
// fused per-utterance language ordering both match. This isolates the
// scale-reassociation of the dequant epilogue; quantization loss itself
// is measured as ΔEER by -compress-eval.
func TestCompressedOrderPreservationMediumSeed42(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale pipeline (~1 min): skipped in -short")
	}
	p := BuildPipeline(ScaleMedium, 42)
	const rank = 24 // the BENCH_compress.json headline operating point
	cs, err := p.Compress(rank)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle scores: dequantized float64 models over the same projected
	// test vectors.
	oracleScores := make([][][]float64, len(p.FEs))
	for q := range p.FEs {
		testR := vsm.ProjectVectors(cs.Packed[q], rank, p.Data[q].Test)
		oracle := cs.Quants[q].Dequantize()
		oracleScores[q] = make([][]float64, len(testR))
		for j, x := range testR {
			oracleScores[q][j] = oracle.Scores(x)
		}
	}

	// Per-front-end argmax must agree everywhere.
	for q := range p.FEs {
		for j := range cs.TestScores[q] {
			if a, b := argmax(cs.TestScores[q][j]), argmax(oracleScores[q][j]); a != b {
				t.Fatalf("front-end %s utt %d: int8 argmax %d, oracle %d", p.FEs[q].Name, j, a, b)
			}
		}
	}

	// Fused ranking: both score sets through the identical fusion
	// backends (trained once on the shipped int8 dev scores), the
	// per-utterance language ordering must match.
	fusedQ := p.fusePerDuration(cs.DevScores, cs.TestScores, nil)
	fusedO := p.fusePerDuration(cs.DevScores, oracleScores, nil)
	for j := range fusedQ {
		rq := ranking(fusedQ[j])
		ro := ranking(fusedO[j])
		for i := range rq {
			if rq[i] != ro[i] {
				t.Fatalf("utt %d: fused ranking diverges at position %d (int8 %v vs oracle %v)", j, i, rq, ro)
			}
		}
	}
}

func argmax(row []float64) int {
	best := 0
	for k, v := range row {
		if v > row[best] {
			best = k
		}
	}
	return best
}

// ranking returns language indices in descending score order (stable
// insertion sort — rows are short).
func ranking(row []float64) []int {
	idx := make([]int, len(row))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && row[idx[j]] > row[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}
