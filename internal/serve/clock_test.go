package serve

import (
	"sync"
	"time"
)

// fakeClock is a manually advanced clock for tests. After-waiters fire
// when Advance moves the clock past their deadline. WaitForWaiters lets a test rendezvous with code that is
// about to block on the clock, eliminating sleep-based synchronization.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
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

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &fakeWaiter{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		w.ch <- c.now
		return w.ch
	}
	c.waiters = append(c.waiters, w)
	return w.ch
}

// Advance moves the clock forward and fires every waiter whose deadline
// passed.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	var due []*fakeWaiter
	rest := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
	c.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}

// WaitForWaiters blocks until at least n goroutines are parked on the
// clock (After), so a test can Advance exactly when the code under
// test is listening.
func (c *fakeClock) WaitForWaiters(n int) {
	for {
		c.mu.Lock()
		parked := len(c.waiters)
		c.mu.Unlock()
		if parked >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}
