package frontend

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/synthlang"
)

// allocUtterance is a 30-second VOA utterance: the longest duration tier
// under the channel that confuses most.
func allocUtterance() *synthlang.Utterance {
	r := rng.New(3)
	return testLangs()[4].Sample(r, 30, synthlang.NewSpeaker(r, 0), synthlang.ChannelVOA)
}

// TestDecodeCheckedAllocs: a decode allocates each slot once and otherwise
// a constant — the slot list, one Dirichlet scratch and the lattice — with
// no per-draw weight copy and no per-slot dedupe map.
func TestDecodeCheckedAllocs(t *testing.T) {
	fe := New("HU", ANNHMM, 59, 12)
	u := allocUtterance()
	slots := len(fe.decodeSlots(rng.New(5), u))
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := fe.DecodeChecked(rng.New(5), u); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(slots + 10); allocs > limit {
		t.Fatalf("DecodeChecked allocates %v objects for %d slots, want ≤ %v", allocs, slots, limit)
	}
}

func BenchmarkDecodeChecked(b *testing.B) {
	fe := New("HU", ANNHMM, 59, 12)
	u := allocUtterance()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if _, err := fe.DecodeChecked(rng.New(uint64(n)), u); err != nil {
			b.Fatal(err)
		}
	}
}
