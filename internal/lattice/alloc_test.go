package lattice

import (
	"testing"

	"repro/internal/rng"
)

// sausageSlots builds a deterministic n-slot sausage over 40 phones with
// one to four alternatives per slot, some of zero probability.
func sausageSlots(n int) []SausageSlot {
	r := rng.New(23)
	slots := make([]SausageSlot, n)
	for i := range slots {
		slot := SausageSlot{{Phone: r.Intn(40), Prob: 0.5 + r.Float64()/4}}
		for a := r.Intn(4); a > 0; a-- {
			prob := r.Float64() / 4
			if r.Intn(8) == 0 {
				prob = 0
			}
			slot = append(slot, struct {
				Phone int
				Prob  float64
			}{Phone: r.Intn(40), Prob: prob})
		}
		slots[i] = slot
	}
	return slots
}

// TestParseSausageAllocsConstant: the arena builder allocates the same
// handful of objects (lattice, edges, two list headers, one index arena)
// however many slots the sausage has.
func TestParseSausageAllocsConstant(t *testing.T) {
	small, big := sausageSlots(8), sausageSlots(400)
	parse := func(slots []SausageSlot) func() {
		return func() {
			if _, err := ParseSausage(slots, 40); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocsSmall := testing.AllocsPerRun(20, parse(small))
	allocsBig := testing.AllocsPerRun(20, parse(big))
	if allocsSmall != allocsBig || allocsBig > 5 {
		t.Fatalf("ParseSausage allocates %v objects for 8 slots, %v for 400; want the same constant ≤ 5",
			allocsSmall, allocsBig)
	}
	if a := testing.AllocsPerRun(20, func() { FromSausage(big) }); a != allocsBig {
		t.Fatalf("FromSausage allocates %v objects, ParseSausage %v", a, allocsBig)
	}
}

func BenchmarkParseSausage(b *testing.B) {
	slots := sausageSlots(300)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if _, err := ParseSausage(slots, 40); err != nil {
			b.Fatal(err)
		}
	}
}
