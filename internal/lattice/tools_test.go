package lattice

import (
	"math"
	"testing"
)

func twoSlotSausage() *Lattice {
	return FromSausage([]SausageSlot{
		{{Phone: 1, Prob: 0.7}, {Phone: 2, Prob: 0.3}},
		{{Phone: 3, Prob: 0.6}, {Phone: 4, Prob: 0.4}},
	})
}

func TestOracleErrorRatePerfect(t *testing.T) {
	l := twoSlotSausage()
	// Reference 2,4 is in the lattice (the lowest-probability path).
	if per := l.OracleErrorRate([]int{2, 4}); per != 0 {
		t.Fatalf("oracle PER %v for in-lattice reference", per)
	}
}

func TestOracleErrorRateSubstitution(t *testing.T) {
	l := FromString([]int{1, 2, 3})
	if per := l.OracleErrorRate([]int{1, 9, 3}); math.Abs(per-1.0/3) > 1e-12 {
		t.Fatalf("oracle PER %v, want 1/3", per)
	}
}

func TestOracleErrorRateInsertionsAndDeletions(t *testing.T) {
	l := FromString([]int{1, 2})
	// Reference longer: one deletion needed.
	if per := l.OracleErrorRate([]int{1, 7, 2}); math.Abs(per-1.0/3) > 1e-12 {
		t.Fatalf("PER %v", per)
	}
	// Reference shorter: one insertion needed.
	if per := l.OracleErrorRate([]int{1}); math.Abs(per-1.0) > 1e-12 {
		t.Fatalf("PER %v", per)
	}
}

func TestOracleBelowOneBest(t *testing.T) {
	// A lattice whose 1-best is wrong but which contains the truth: the
	// oracle must beat the 1-best.
	l := FromSausage([]SausageSlot{
		{{Phone: 9, Prob: 0.6}, {Phone: 1, Prob: 0.4}},
		{{Phone: 2, Prob: 1.0}},
	})
	ref := []int{1, 2}
	best, _ := l.BestPath()
	oneBestErrors := 0
	for i := range ref {
		if best[i] != ref[i] {
			oneBestErrors++
		}
	}
	if oneBestErrors == 0 {
		t.Fatal("test setup wrong: 1-best should be wrong")
	}
	if per := l.OracleErrorRate(ref); per != 0 {
		t.Fatalf("oracle PER %v, truth is in the lattice", per)
	}
}

func TestOracleEmptyRef(t *testing.T) {
	l := FromString([]int{1})
	if l.OracleErrorRate(nil) != 0 {
		t.Fatal("empty reference should cost 0")
	}
}
