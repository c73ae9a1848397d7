package serve

import (
	"sync"
	"time"
)

// fakeClock drives breaker cooldowns by hand: Now moves only when the
// test calls Advance. After never fires (the breaker tests reload with
// Retries 0, so no backoff waits on it) — the de-flake contract: no test
// waits on a wall clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	// An arbitrary fixed epoch keeps failures reproducible.
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) After(time.Duration) <-chan time.Time { return make(chan time.Time) }
