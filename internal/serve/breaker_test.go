package serve

import (
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	b := NewBreaker(BreakerPolicy{TripAfter: 3, Cooldown: 10 * time.Second})

	if got := b.State(now); got != BreakerClosed {
		t.Fatalf("initial state %s, want closed", got)
	}
	if !allow(b, now) {
		t.Fatal("closed breaker must allow")
	}

	// Two failures: still closed (TripAfter is 3).
	if b.Failure(now) {
		t.Fatal("first failure must not trip")
	}
	if b.Failure(now) {
		t.Fatal("second failure must not trip")
	}
	if got := b.State(now); got != BreakerClosed {
		t.Fatalf("after 2 failures: %s, want closed", got)
	}

	// Third failure trips it open; trip is reported exactly once.
	if !b.Failure(now) {
		t.Fatal("third failure must trip")
	}
	if got := b.State(now); got != BreakerOpen {
		t.Fatalf("after trip: %s, want open", got)
	}
	if allow(b, now) {
		t.Fatal("open breaker must fail fast")
	}
	if ok, wait := b.Allow(now.Add(9 * time.Second)); ok || wait != time.Second {
		t.Fatalf("9s into the cooldown: allow=%v wait=%v, want refused with 1s left", ok, wait)
	}

	// Cooldown elapsed: half-open, one probe allowed.
	probeAt := now.Add(10 * time.Second)
	if got := b.State(probeAt); got != BreakerHalfOpen {
		t.Fatalf("after cooldown: %s, want half-open", got)
	}
	if !allow(b, probeAt) {
		t.Fatal("half-open breaker must allow the probe")
	}

	// Failed probe re-arms the cooldown (open again, no new trip event).
	if b.Failure(probeAt) {
		t.Fatal("re-arming failure must not report a second trip")
	}
	if got := b.State(probeAt.Add(time.Second)); got != BreakerOpen {
		t.Fatalf("after failed probe: %s, want open (re-armed)", got)
	}
	if allow(b, probeAt.Add(9*time.Second)) {
		t.Fatal("re-armed breaker must hold the fresh cooldown")
	}

	// Successful probe after the second cooldown closes it fully.
	probe2 := probeAt.Add(10 * time.Second)
	if !allow(b, probe2) {
		t.Fatal("second probe window must open")
	}
	b.Success()
	if got := b.State(probe2); got != BreakerClosed {
		t.Fatalf("after successful probe: %s, want closed", got)
	}
	if b.Failure(probe2) {
		t.Fatal("a single failure after close must not trip")
	}
}

func allow(b *Breaker, now time.Time) bool {
	ok, _ := b.Allow(now)
	return ok
}

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(BreakerPolicy{})
	if b.pol.TripAfter != 3 || b.pol.Cooldown != 10*time.Second {
		t.Fatalf("defaults = %+v", b.pol)
	}
}
