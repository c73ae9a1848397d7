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

// ring is a fixed-capacity observation buffer that drops oldest-first:
// once full, each push overwrites the oldest entry in place, so nothing
// is shifted per observation.
type ring struct {
	cap   int
	items []Observation
	next  int // the oldest entry's index once full
}

func (r *ring) push(o Observation) {
	if len(r.items) < r.cap {
		r.items = append(r.items, o)
		return
	}
	r.items[r.next] = o
	r.next = (r.next + 1) % r.cap
}

// oldestFirst copies the ring in arrival order (nil when empty).
func (r *ring) oldestFirst() []Observation {
	return append(append([]Observation(nil), r.items[r.next:]...), r.items[:r.next]...)
}

// accumulator is the lock-guarded observation store the serving handlers
// feed and the trainer snapshots. Both rings drop oldest-first; the
// shadow ring samples deterministically (every Nth observation for
// N ≈ 1/rate), so two identical traffic sequences accumulate identical
// shadow sets.
type accumulator struct {
	mu     sync.Mutex
	numFE  int
	every  int // shadow sampling stride; 0 = shadow off
	buf    ring
	shadow ring
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
	return &accumulator{numFE: numFE, every: every, buf: ring{cap: capacity}, shadow: ring{cap: shadowCap}}
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
	a.buf.push(o)
	if a.every > 0 && a.seen%int64(a.every) == 0 {
		a.shadow.push(o)
	}
	obs.SetGauge("adapt.buffer_utts", float64(len(a.buf.items)))
	obs.SetGauge("adapt.shadow_utts", float64(len(a.shadow.items)))
	return true
}

// snapshot copies both rings (oldest first) for an off-path training
// pass.
func (a *accumulator) snapshot() (buf, shadow []Observation) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.buf.oldestFirst(), a.shadow.oldestFirst()
}

// reset drops everything — called after a promotion or rollback, so the
// next pass trains on traffic served by the new generation only.
func (a *accumulator) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buf, a.shadow = ring{cap: a.buf.cap}, ring{cap: a.shadow.cap}
	obs.SetGauge("adapt.buffer_utts", 0)
	obs.SetGauge("adapt.shadow_utts", 0)
}

// counts reports the current ring sizes and total offered observations.
func (a *accumulator) counts() (buffered, shadow int, seen int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.buf.items), len(a.shadow.items), a.seen
}
