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
	if clock == nil {
		clock = RealClock{}
	}
	obs.SetGauge("serve.reload.breaker_open", 0)
	return &reloader{reg: reg, pol: pol, clock: clock, br: NewBreaker(pol)}
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
	err := Retry(context.Background(), rl.clock, rl.pol, obsReloadRetries.Inc, func() (err error) {
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
