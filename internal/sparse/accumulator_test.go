package sparse

import (
	"math"
	"sync"
	"testing"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// refAccumulate is the map-backed accumulation path, kept as the
// equivalence oracle: per-index addition order under a map equals
// emission order, which is exactly what the dense accumulator does, and
// FromMap sorts the indices, so results must match bit for bit.
func refAccumulate(obs []struct {
	idx int32
	w   float64
}) *Vector {
	m := make(map[int32]float64)
	for _, o := range obs {
		m[o.idx] += o.w
	}
	return FromMap(m)
}

func randObservations(r *rng.RNG, n, idxRange int) []struct {
	idx int32
	w   float64
} {
	obs := make([]struct {
		idx int32
		w   float64
	}, n)
	for i := range obs {
		obs[i].idx = int32(r.Intn(idxRange))
		// Mix signs and magnitudes so addition order matters if broken.
		obs[i].w = (r.Float64() - 0.3) * math.Exp(float64(r.Intn(8)))
	}
	return obs
}

// sameVector fails the test unless got and want hold the same indices and
// bit-identical values.
func sameVector(t *testing.T, what string, got, want *Vector) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(got.Idx) != len(want.Idx) {
		t.Fatalf("%s: nnz %d != %d", what, len(got.Idx), len(want.Idx))
	}
	for k := range got.Idx {
		if got.Idx[k] != want.Idx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s entry %d: got (%d,%v) want (%d,%v)",
				what, k, got.Idx[k], got.Val[k], want.Idx[k], want.Val[k])
		}
	}
}

func TestAccumulatorMatchesMapReference(t *testing.T) {
	root := rng.New(42)
	ranges := []int{7, 100, 5000, 200000}
	// One accumulator per range, reused across trials: each Vector must
	// leave it empty for the next.
	accs := make([]*Accumulator, len(ranges))
	for i, n := range ranges {
		accs[i] = NewAccumulator(n)
	}
	for trial := 0; trial < 200; trial++ {
		r := root.Split(uint64(trial))
		n := r.Intn(3000) + 1
		obs := randObservations(r, n, ranges[trial%4])

		acc := accs[trial%4]
		for _, o := range obs {
			acc.Add(o.idx, o.w)
		}
		sameVector(t, "trial", acc.Vector(), refAccumulate(obs))
	}
}

func TestAccumulatorResetReuse(t *testing.T) {
	a := NewAccumulator(1500)
	for round := 0; round < 5; round++ {
		for i := int32(0); i < 500; i++ {
			a.Add(i*3, float64(i+int32(round)))
		}
		// First value is 0+round, which is zero only in round 0.
		wantNNZ := 500
		if round == 0 {
			wantNNZ = 499
		}
		if v := a.Vector(); v.NNZ() != wantNNZ {
			t.Fatalf("round %d: nnz %d, want %d", round, v.NNZ(), wantNNZ)
		}
		// Vector emptied the accumulator: a fresh pass sees no leftovers.
		if v := a.Vector(); v.NNZ() != 0 {
			t.Fatalf("round %d: Vector left %d entries behind", round, v.NNZ())
		}
	}
}

// TestAccumulatorNegativeIndexPanics: indices outside [0, dim) panic,
// negative ones and ones past the end alike.
func TestAccumulatorNegativeIndexPanics(t *testing.T) {
	for _, i := range []int32{-1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic on index %d of a 64-wide accumulator", i)
				}
			}()
			NewAccumulator(64).Add(i, 1)
		}()
	}
}

// TestPooledAccumulatorRace exercises a shared pool of accumulators (the
// way ngram.Space recycles them) from a worker pool: every worker must get
// an exclusive instance and produce correct results. Run with -race to
// check the pool handoff.
func TestPooledAccumulatorRace(t *testing.T) {
	root := rng.New(7)
	const tasks = 64
	pool := sync.Pool{New: func() any { return NewAccumulator(300) }}
	out := make([]*Vector, tasks)
	parallel.ForPool("test-acc", tasks, func(i int) {
		r := root.Split(uint64(i))
		obs := randObservations(r, 2000, 300)
		acc := pool.Get().(*Accumulator)
		defer pool.Put(acc)
		for _, o := range obs {
			acc.Add(o.idx, o.w)
		}
		out[i] = acc.Vector()
	})
	for i := range out {
		r := root.Split(uint64(i))
		sameVector(t, "task", out[i], refAccumulate(randObservations(r, 2000, 300)))
	}
}

// Benchmarks: map-backed vs dense accumulation over a realistic workload
// (a few thousand observations over a few hundred distinct grams, the
// shape of one utterance × order pass).

func benchObservations() []struct {
	idx int32
	w   float64
} {
	return randObservations(rng.New(99), 4096, 400)
}

func BenchmarkAccumulateMap(b *testing.B) {
	obs := benchObservations()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		m := make(map[int32]float64)
		for _, o := range obs {
			m[o.idx] += o.w
		}
		v := FromMap(m)
		if v.NNZ() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkAccumulateDense(b *testing.B) {
	obs := benchObservations()
	acc := NewAccumulator(400)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		for _, o := range obs {
			acc.Add(o.idx, o.w)
		}
		if v := acc.Vector(); v.NNZ() == 0 {
			b.Fatal("empty")
		}
	}
}
