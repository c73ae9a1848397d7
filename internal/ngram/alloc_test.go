package ngram

import (
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/rng"
)

// benchSausage builds a deterministic confusion network with the rough
// shape of a 10-second utterance: ~100 slots, a few alternatives each.
func benchSausage(slots, alts, phones int) *lattice.Lattice {
	r := rng.New(17)
	ss := make([]lattice.SausageSlot, slots)
	for i := range ss {
		var slot lattice.SausageSlot
		for j := 0; j < alts; j++ {
			slot = append(slot, struct {
				Phone int
				Prob  float64
			}{Phone: r.Intn(phones), Prob: r.Float64() + 0.05})
		}
		ss[i] = slot
	}
	return lattice.FromSausage(ss)
}

// raceEnabled is set under the race detector, which makes sync.Pool drop
// a random share of Puts: a dropped accumulator or forward–backward
// scratch costs at most three objects each to rebuild.
var raceEnabled bool

// TestSupervectorAllocsFlat guards the dense pooled accumulator and the
// shared gram scratch: a call allocates the same five objects — the
// per-order totals, the gram scratch and the output vector's header, Idx
// and Val — however many grams the lattice emits.
func TestSupervectorAllocsFlat(t *testing.T) {
	s := NewSpace(20, 3)
	small := benchSausage(8, 2, 20)
	big := benchSausage(200, 4, 20)
	// Warm the space's accumulator pool so steady-state is measured.
	s.Supervector(big)

	allocsSmall := testing.AllocsPerRun(10, func() { s.Supervector(small) })
	allocsBig := testing.AllocsPerRun(10, func() { s.Supervector(big) })
	slack := 0.0
	if raceEnabled {
		slack = 6
	}
	if math.Abs(allocsSmall-allocsBig) > slack || allocsBig > 5+slack {
		t.Fatalf("Supervector allocates %v objects for 8 slots, %v for 200; want the same constant ≤ 5",
			allocsSmall, allocsBig)
	}
}

func BenchmarkSupervector(b *testing.B) {
	s := NewSpace(59, 2)
	l := benchSausage(100, 3, 59)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		v := s.Supervector(l)
		if v.NNZ() == 0 {
			b.Fatal("empty supervector")
		}
	}
}
