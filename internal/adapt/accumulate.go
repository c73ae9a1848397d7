package adapt

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// Observation is one served full-battery utterance: the weight-space
// vectors the scoring pass scored (already TFLLR-scaled and projected — the
// serve layer's buildVectors output) and the score rows that were
// actually served, both indexed by the bundle's front-end order.
type Observation struct {
	Vectors []*sparse.Vector
	Scores  [][]float64
}

// shadowCap bounds the shadow-sample ring independently of the main
// buffer: the shadow gate needs a representative slice, not the volume.
const shadowCap = 256

// accumulator is the lock-guarded observation store the serving handlers
// feed and the trainer snapshots. Both rings drop oldest-first; the
// shadow ring samples deterministically (every Nth observation for
// N ≈ 1/rate), so two identical traffic sequences accumulate identical
// shadow sets.
type accumulator struct {
	mu     sync.Mutex
	numFE  int
	cap    int
	every  int // shadow sampling stride; 0 = shadow off
	buf    []Observation
	shadow []Observation
	seen   int64 // total observations ever offered
}

func newAccumulator(numFE, capacity int, shadowRate float64) *accumulator {
	every := 0
	if shadowRate > 0 {
		every = int(1/shadowRate + 0.5)
		if every < 1 {
			every = 1
		}
	}
	return &accumulator{numFE: numFE, cap: capacity, every: every}
}

// add offers one observation; incomplete batteries are rejected (the
// voting matrix needs every subsystem's row).
func (a *accumulator) add(o Observation) bool {
	if len(o.Vectors) != a.numFE || len(o.Scores) != a.numFE {
		return false
	}
	for q := 0; q < a.numFE; q++ {
		if o.Vectors[q] == nil || o.Scores[q] == nil {
			return false
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen++
	if len(a.buf) >= a.cap {
		a.buf = append(a.buf[:0], a.buf[1:]...)
	}
	a.buf = append(a.buf, o)
	if a.every > 0 && a.seen%int64(a.every) == 0 {
		if len(a.shadow) >= shadowCap {
			a.shadow = append(a.shadow[:0], a.shadow[1:]...)
		}
		a.shadow = append(a.shadow, o)
	}
	obs.SetGauge("adapt.buffer_utts", float64(len(a.buf)))
	obs.SetGauge("adapt.shadow_utts", float64(len(a.shadow)))
	return true
}

// snapshot copies both rings (oldest first) for an off-path training
// pass.
func (a *accumulator) snapshot() (buf, shadow []Observation) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Observation(nil), a.buf...), append([]Observation(nil), a.shadow...)
}

// reset drops everything — called after a promotion or rollback, so the
// next pass trains on traffic served by the new generation only.
func (a *accumulator) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buf, a.shadow = nil, nil
	obs.SetGauge("adapt.buffer_utts", 0)
	obs.SetGauge("adapt.shadow_utts", 0)
}

// counts reports the current ring sizes and total offered observations.
func (a *accumulator) counts() (buffered, shadow int, seen int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.buf), len(a.shadow), a.seen
}
