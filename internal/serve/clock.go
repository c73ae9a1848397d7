package serve

import "time"

// Clock abstracts the time source of the circuit breakers and retry
// backoff (here and in the fleet coordinator) so tests can drive
// timeouts deterministically instead of racing real sleeps (the de-flake
// contract: no test asserts on the outcome of a wall-clock race).
type Clock interface {
	Now() time.Time
	// After behaves like time.After.
	After(d time.Duration) <-chan time.Time
}

// RealClock is the production clock.
type RealClock struct{}

func (RealClock) Now() time.Time                         { return time.Now() }
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
