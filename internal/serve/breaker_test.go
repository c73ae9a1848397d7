package serve

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	b := NewBreaker(ReloadPolicy{TripAfter: 3, Cooldown: 10 * time.Second})

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

// TestReloadPolicyDefaults pins the one set of defaults that reloads,
// fleet bundle pushes and peer breakers share: no retries, backoff from
// 100 ms doubling to 2 s, and a breaker that opens after 3 failures and
// cools down for 30 s.
func TestReloadPolicyDefaults(t *testing.T) {
	b := NewBreaker(ReloadPolicy{})
	if b.pol.TripAfter != 3 || b.pol.Cooldown != 30*time.Second {
		t.Fatalf("breaker defaults = %+v, want trip 3, cooldown 30s", b.pol)
	}
	var pol ReloadPolicy
	pol.setDefaults()
	if want := (ReloadPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: 2 * time.Second, TripAfter: 3, Cooldown: 30 * time.Second}); pol != want {
		t.Fatalf("defaults = %+v, want %+v", pol, want)
	}

	clk := &recordingClock{}
	attempts := 0
	err := Retry(context.Background(), clk, ReloadPolicy{Retries: 6}, func() {}, func() error {
		attempts++
		return errors.New("down")
	})
	if err == nil || attempts != 7 {
		t.Fatalf("Retry with 6 retries: %d attempts, err %v; want 7 and the last error", attempts, err)
	}
	ms := time.Millisecond
	if want := []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms}; !reflect.DeepEqual(clk.waits, want) {
		t.Fatalf("default backoff waits %v, want %v", clk.waits, want)
	}
	attempts = 0
	Retry(context.Background(), clk, ReloadPolicy{}, func() {}, func() error {
		attempts++
		return errors.New("down")
	})
	if attempts != 1 {
		t.Fatalf("zero policy ran %d attempts, want 1 (no retries)", attempts)
	}
}

// recordingClock records every wait and fires it at once.
type recordingClock struct{ waits []time.Duration }

func (c *recordingClock) Now() time.Time { return time.Unix(1_700_000_000, 0) }

func (c *recordingClock) After(d time.Duration) <-chan time.Time {
	c.waits = append(c.waits, d)
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}
