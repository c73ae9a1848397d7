package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrBreakerOpen is returned by Reload while the circuit breaker is open:
// recent reloads failed repeatedly, so further attempts are rejected until
// the cooldown passes (the previous model keeps serving throughout).
var ErrBreakerOpen = errors.New("serve: reload circuit breaker open")

// ReloadPolicy governs how the server retries model reloads and when it
// stops trying. Zero values select the defaults noted per field.
type ReloadPolicy struct {
	// Retries is how many extra attempts follow a failed reload within one
	// Reload call (2; negative disables retries).
	Retries int
	// BaseBackoff is the delay before the first retry; it doubles per
	// retry (100 ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry delay (2 s).
	MaxBackoff time.Duration
	// TripAfter is how many consecutive failed Reload calls (each already
	// retried) open the breaker (3).
	TripAfter int
	// Cooldown is how long an open breaker rejects reloads before letting
	// one probe attempt through (30 s).
	Cooldown time.Duration
}

func (p *ReloadPolicy) setDefaults() {
	if p.Retries == 0 {
		p.Retries = 2
	}
	if p.Retries < 0 {
		p.Retries = 0
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	if p.TripAfter <= 0 {
		p.TripAfter = 3
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 30 * time.Second
	}
}

// Reload/breaker counters (obs run reports and /metricsz).
var (
	obsReloadRetries  = obs.GetCounter("serve.reload.retries")
	obsReloadFailures = obs.GetCounter("serve.reload.failures")
	obsBreakerTrips   = obs.GetCounter("serve.reload.breaker_trips")
	obsBreakerDenied  = obs.GetCounter("serve.reload.breaker_denied")
)

// reloader wraps Registry.Reload with retry/backoff and a circuit
// breaker: while the breaker is open, reloads are rejected with
// ErrBreakerOpen until the cooldown elapses, then one probe runs. A
// reload failure never disturbs serving — the registry keeps the
// previous model active.
type reloader struct {
	reg   *Registry
	pol   ReloadPolicy
	clock Clock
	br    *Breaker

	mu sync.Mutex // serializes reload operations
}

func newReloader(reg *Registry, pol ReloadPolicy, clock Clock) *reloader {
	pol.setDefaults()
	if clock == nil {
		clock = RealClock{}
	}
	obs.SetGauge("serve.reload.breaker_open", 0)
	br := NewBreaker(BreakerPolicy{TripAfter: pol.TripAfter, Cooldown: pol.Cooldown})
	return &reloader{reg: reg, pol: pol, clock: clock, br: br}
}

// breakerOpen reports whether the circuit breaker currently rejects
// reloads — surfaced on /readyz (a process that cannot pick up a new
// model is not ready for orchestration purposes) and as the
// serve.reload.breaker_open gauge.
func (rl *reloader) breakerOpen() bool {
	return rl.br.State(rl.clock.Now()) == BreakerOpen
}

// Reload runs one reload operation: up to 1+Retries attempts with
// exponential backoff, gated by the breaker.
func (rl *reloader) Reload() (*Model, error) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if ok, wait := rl.br.Allow(rl.clock.Now()); !ok {
		obsBreakerDenied.Inc()
		return nil, fmt.Errorf("%w (cooldown ends in %v)", ErrBreakerOpen, wait.Round(time.Millisecond))
	}
	// Closed, or half-open: the cooldown elapsed and this call is the
	// probe.
	var m *Model
	err := Retry(context.Background(), rl.clock, rl.pol.Retries, rl.pol.BaseBackoff, rl.pol.MaxBackoff,
		obsReloadRetries.Inc, func() (err error) {
			m, err = rl.reg.Reload()
			return err
		})
	if err == nil {
		rl.br.Success()
		obs.SetGauge("serve.reload.breaker_open", 0)
		return m, nil
	}
	obsReloadFailures.Inc()
	now := rl.clock.Now()
	rl.br.Failure(now)
	// Every failure that leaves the breaker open, a failed half-open
	// probe included, counts as a trip.
	if rl.br.State(now) == BreakerOpen {
		obsBreakerTrips.Inc()
		obs.SetGauge("serve.reload.breaker_open", 1)
	}
	return nil, err
}
