package ngram

import (
	"math"
	"sync"
	"testing"

	"repro/internal/lattice"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// refSupervector is the map-plus-sort oracle for Space.Supervector: counts
// summed per index in a map in emission order (one ExpectedNgramCounts
// pass per order), sorted by FromMap, then normalized per order block.
func refSupervector(s *Space, l *lattice.Lattice) *sparse.Vector {
	m := make(map[int32]float64)
	totals := make([]float64, s.Order)
	for n := 1; n <= s.Order; n++ {
		l.ExpectedNgramCounts(n, func(gram []int, w float64) {
			if w <= 0 {
				return
			}
			m[s.Index(gram)] += w
			totals[n-1] += w
		})
	}
	v := sparse.FromMap(m)
	v.Map(func(idx int32, val float64) float64 {
		t := totals[s.OrderOf(idx)-1]
		if t <= 0 {
			return 0
		}
		return val / t
	})
	return v
}

// randomSausage draws a sausage of 1–maxSlots slots with 1–4
// alternatives each over the space's phones.
func randomSausage(r *rng.RNG, maxSlots, phones int) *lattice.Lattice {
	slots := make([]lattice.SausageSlot, 1+r.Intn(maxSlots))
	for i := range slots {
		for a := 1 + r.Intn(4); a > 0; a-- {
			slots[i] = append(slots[i], struct {
				Phone int
				Prob  float64
			}{Phone: r.Intn(phones), Prob: r.Float64() + 0.01})
		}
	}
	return lattice.FromSausage(slots)
}

func sameBits(a, b *sparse.Vector) bool {
	if len(a.Idx) != len(b.Idx) {
		return false
	}
	for k := range a.Idx {
		if a.Idx[k] != b.Idx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// mixedSpaces are the concurrency test's spaces: 43² and 64² bigram
// spaces (the CZ and MA inventories) and a 20³ trigram space.
func mixedSpaces() []*Space {
	return []*Space{NewSpace(43, 2), NewSpace(64, 2), NewSpace(20, 3)}
}

func TestSupervectorMatchesMapReference(t *testing.T) {
	root := rng.New(42)
	for si, s := range mixedSpaces() {
		for trial := 0; trial < 60; trial++ {
			l := randomSausage(root.Split(uint64(si<<16|trial)), 120, s.NumPhones)
			got, want := s.Supervector(l), refSupervector(s, l)
			if err := got.Validate(); err != nil {
				t.Fatalf("space %d trial %d: %v", si, trial, err)
			}
			if !sameBits(got, want) {
				t.Fatalf("space %d trial %d: supervector differs from the map reference", si, trial)
			}
		}
	}
}

// TestSupervectorConcurrentMixedSpaces runs extraction over spaces of
// different dimensions from several goroutines at once: each space's
// accumulator pool must hand every caller an exclusive, empty accumulator
// of its own dimension, so every result equals the serial one bit for bit.
func TestSupervectorConcurrentMixedSpaces(t *testing.T) {
	spaces := mixedSpaces()
	const perSpace = 12
	lats := make([][]*lattice.Lattice, len(spaces))
	serial := make([][]*sparse.Vector, len(spaces))
	root := rng.New(9)
	for si, s := range spaces {
		for i := 0; i < perSpace; i++ {
			l := randomSausage(root.Split(uint64(si<<16|i)), 80, s.NumPhones)
			lats[si] = append(lats[si], l)
			serial[si] = append(serial[si], s.Supervector(l))
		}
	}
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the spaces in a different rotation, so
			// every pool sees interleaved Get/Put from several goroutines.
			for round := 0; round < 4; round++ {
				for k := range spaces {
					si := (k + w + round) % len(spaces)
					for i, l := range lats[si] {
						if !sameBits(spaces[si].Supervector(l), serial[si][i]) {
							t.Errorf("worker %d: space %d lattice %d differs from the serial result", w, si, i)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
