package serve

import (
	"context"
	"sync"
	"time"
)

// BreakerPolicy governs a circuit breaker. Zero values select the
// defaults noted per field.
type BreakerPolicy struct {
	// TripAfter is how many consecutive failures open the breaker (3).
	TripAfter int
	// Cooldown is how long an open breaker fails fast before letting one
	// probe attempt through (10 s).
	Cooldown time.Duration
}

func (p *BreakerPolicy) setDefaults() {
	if p.TripAfter <= 0 {
		p.TripAfter = 3
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 10 * time.Second
	}
}

// Breaker states as reported by State (and the fleet's /clusterz).
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// Breaker is the three-state circuit breaker behind model reloads and
// the fleet coordinator's per-peer RPCs. Closed: attempts pass through.
// Open (TripAfter consecutive failures): Allow refuses until the
// cooldown passes, so callers fail fast instead of stalling on a broken
// dependency. Half-open (cooldown elapsed): the next attempt runs as a
// probe — success closes the breaker, failure re-arms the cooldown.
type Breaker struct {
	pol BreakerPolicy

	mu        sync.Mutex
	fails     int
	openUntil time.Time
}

// NewBreaker returns a closed breaker governed by pol.
func NewBreaker(pol BreakerPolicy) *Breaker {
	pol.setDefaults()
	return &Breaker{pol: pol}
}

// Allow reports whether an attempt may run at now (closed, or the
// half-open probe); when it may not, wait is what is left of the
// cooldown.
func (b *Breaker) Allow(now time.Time) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.pol.TripAfter || !now.Before(b.openUntil) {
		return true, 0
	}
	return false, b.openUntil.Sub(now)
}

// Success records a completed attempt and closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.fails = 0
	b.mu.Unlock()
}

// Failure records a failed attempt; when the consecutive-failure count
// reaches TripAfter the breaker (re-)arms its cooldown. It returns true
// when this failure tripped the breaker closed→open.
func (b *Breaker) Failure(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails >= b.pol.TripAfter {
		tripped := b.fails == b.pol.TripAfter
		b.openUntil = now.Add(b.pol.Cooldown)
		return tripped
	}
	return false
}

// State reports the breaker state at now.
func (b *Breaker) State(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.fails < b.pol.TripAfter:
		return BreakerClosed
	case now.Before(b.openUntil):
		return BreakerOpen
	default:
		return BreakerHalfOpen
	}
}

// DefaultMaxBackoff caps one retry delay (ReloadPolicy.MaxBackoff's
// default; fleet bundle pushes use it too).
const DefaultMaxBackoff = 2 * time.Second

// Retry runs attempt, and while it fails runs it up to retries more
// times, calling onRetry and then waiting on clock before each one. The
// wait starts at base and doubles per retry up to maxBackoff. A
// cancelled ctx ends the loop without waiting further. Retry returns the
// last attempt's error.
func Retry(ctx context.Context, clock Clock, retries int, base, maxBackoff time.Duration, onRetry func(), attempt func() error) error {
	backoff := base
	for i := 0; ; i++ {
		err := attempt()
		if err == nil || i >= retries || ctx.Err() != nil {
			return err
		}
		onRetry()
		select {
		case <-ctx.Done():
			return err
		case <-clock.After(backoff):
		}
		backoff = min(2*backoff, maxBackoff)
	}
}
