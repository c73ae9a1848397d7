package cluster

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/testbundle"
)

// The cluster chaos suite: worker crash/restart schedules driven either
// through the testNet (process death) or the cluster.rpc.* fault-
// injection sites (seeded, deterministic RPC faults), asserting the
// exact per-peer breaker lifecycle and that the coordinator never
// crashes or serves a 5xx while any shard survives. Run under -race in
// CI like every other test.

func TestBreakerLifecycleUnderWorkerCrash(t *testing.T) {
	f := newFleet(t, 2, func(cfg *CoordinatorConfig) {
		cfg.Breaker = serve.BreakerPolicy{TripAfter: 3, Cooldown: 10 * time.Second}
	})
	mustDistribute(t, f)
	req := scoreRequestFor(f.bundle, testbundle.Vector(29))
	trips := obs.GetCounter("cluster.breaker.trips")

	// Healthy baseline: breaker closed, peer up.
	rec, sr := f.score(t, req)
	if rec.Code != http.StatusOK || sr.Degraded {
		t.Fatalf("baseline: status %d degraded=%v", rec.Code, sr.Degraded)
	}
	if st := f.peerStatus(t, f.hosts[1]); st.Breaker != serve.BreakerClosed || !st.Up {
		t.Fatalf("baseline peer state %+v", st)
	}

	// Worker 1 crashes. Three consecutive failures trip its breaker;
	// every response along the way stays a degraded 2xx.
	f.net.setDown(f.hosts[1], true)
	for i := 1; i <= 3; i++ {
		rec, sr = f.score(t, req)
		if rec.Code != http.StatusOK || !sr.Degraded {
			t.Fatalf("crash request %d: status %d degraded=%v", i, rec.Code, sr.Degraded)
		}
	}
	st := f.peerStatus(t, f.hosts[1])
	if st.Breaker != serve.BreakerOpen || st.Up || st.Failures != 3 {
		t.Fatalf("after 3 failures: %+v, want open/down/3", st)
	}
	if got := trips.Value(); got != 1 {
		t.Fatalf("cluster.breaker.trips = %d, want 1", got)
	}

	// Open breaker fails the shard fast: still degraded 2xx, and the RPC
	// never leaves the coordinator (failure count frozen).
	rec, sr = f.score(t, req)
	if rec.Code != http.StatusOK || !sr.Degraded {
		t.Fatalf("open-breaker request: status %d degraded=%v", rec.Code, sr.Degraded)
	}
	if st = f.peerStatus(t, f.hosts[1]); st.Failures != 3 {
		t.Fatalf("open breaker let an RPC through: failures %d, want still 3", st.Failures)
	}

	// Cooldown elapses → half-open → the probe fails (worker still dead)
	// → the breaker re-arms for a fresh cooldown without a new trip event.
	f.clock.Advance(10 * time.Second)
	if st = f.peerStatus(t, f.hosts[1]); st.Breaker != serve.BreakerHalfOpen {
		t.Fatalf("after cooldown: %+v, want half-open", st)
	}
	rec, sr = f.score(t, req)
	if rec.Code != http.StatusOK || !sr.Degraded {
		t.Fatalf("failed-probe request: status %d degraded=%v", rec.Code, sr.Degraded)
	}
	st = f.peerStatus(t, f.hosts[1])
	if st.Breaker != serve.BreakerOpen || st.Failures != 4 {
		t.Fatalf("after failed probe: %+v, want re-armed open with 4 failures", st)
	}
	if got := trips.Value(); got != 1 {
		t.Fatalf("re-arm counted as a new trip: %d", got)
	}

	// Second cooldown elapses and the worker restarts: the half-open
	// probe succeeds, the breaker closes, and scoring is exact again.
	f.clock.Advance(10 * time.Second)
	f.net.setDown(f.hosts[1], false)
	rec, sr = f.score(t, req)
	if rec.Code != http.StatusOK || sr.Degraded {
		t.Fatalf("recovered request: status %d degraded=%v (%s)", rec.Code, sr.Degraded, rec.Body.String())
	}
	testbundle.SameRows(t, sr.Scores, testbundle.ExpectedScores(f.bundle, testbundle.Vector(29)))
	if st = f.peerStatus(t, f.hosts[1]); st.Breaker != serve.BreakerClosed || !st.Up {
		t.Fatalf("after recovery: %+v, want closed/up", st)
	}
}

// TestCoordinatorSurvivesConcurrentCrashes hammers the coordinator from
// many goroutines while a worker dies and revives mid-burst: no
// response may be a 5xx (one shard always survives) and the race
// detector must stay quiet — the "zero coordinator crashes" gate.
func TestCoordinatorSurvivesConcurrentCrashes(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	req := scoreRequestFor(f.bundle, testbundle.Vector(31))

	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec, _ := f.score(t, req)
				if rec.Code >= 500 {
					errs <- fmt.Errorf("goroutine %d request %d: status %d: %s", g, i, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	// Kill and revive worker 1 while the burst runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			f.net.setDown(f.hosts[1], i%2 == 0)
		}
		f.net.setDown(f.hosts[1], false)
	}()
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestChaosPlanDrivesShardRPCs proves the chaos-plan grammar reaches the
// scatter path: a cluster.rpc.* rule at p=1 kills every shard RPC (503,
// since nothing survives), the per-peer sites show up in the injection
// snapshot, and disabling the plan restores exact scoring.
func TestChaosPlanDrivesShardRPCs(t *testing.T) {
	f := newFleet(t, 2, func(cfg *CoordinatorConfig) {
		cfg.Breaker = serve.BreakerPolicy{TripAfter: 1000} // isolate injection from breaker effects
	})
	mustDistribute(t, f)
	req := scoreRequestFor(f.bundle, testbundle.Vector(37))

	plan, err := faultinject.ParsePlan("seed=7; cluster.rpc.*:error:p=1")
	if err != nil {
		t.Fatal(err)
	}
	disable := faultinject.Enable(plan)
	rec, _ := f.score(t, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all RPCs injected dead: status %d, want 503", rec.Code)
	}
	snap := faultinject.Snapshot()
	for _, host := range f.hosts {
		st, ok := snap["cluster.rpc."+host]
		if !ok || st.Fires == 0 {
			t.Fatalf("site cluster.rpc.%s not hit/fired: %+v", host, snap)
		}
	}
	disable()

	rec, sr := f.score(t, req)
	if rec.Code != http.StatusOK || sr.Degraded {
		t.Fatalf("after disabling chaos: status %d degraded=%v", rec.Code, sr.Degraded)
	}
	testbundle.SameRows(t, sr.Scores, testbundle.ExpectedScores(f.bundle, testbundle.Vector(37)))
}

// TestChaosScheduleIsDeterministic replays the same seeded plan twice
// against the same fleet: the per-request (status, degraded, surviving)
// schedule must repeat exactly — the determinism contract that lets the
// internal/e2e cluster drill assert exact degradation behavior.
func TestChaosScheduleIsDeterministic(t *testing.T) {
	f := newFleet(t, 2, func(cfg *CoordinatorConfig) {
		cfg.Breaker = serve.BreakerPolicy{TripAfter: 1000} // keep every RPC site-gated, not breaker-gated
	})
	mustDistribute(t, f)
	req := scoreRequestFor(f.bundle, testbundle.Vector(41))

	type outcome struct {
		Status    int
		Degraded  bool
		Surviving []string
	}
	run := func() []outcome {
		plan, err := faultinject.ParsePlan("seed=11; cluster.rpc.*:error:p=0.5")
		if err != nil {
			t.Fatal(err)
		}
		disable := faultinject.Enable(plan)
		defer disable()
		var out []outcome
		for i := 0; i < 24; i++ {
			rec, sr := f.score(t, req)
			out = append(out, outcome{rec.Code, sr.Degraded, sr.Surviving})
		}
		return out
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("seeded chaos schedule not deterministic:\nfirst  %+v\nsecond %+v", first, second)
	}
	// The schedule must actually exercise both faulted and clean paths.
	var sawDegraded, sawClean bool
	for _, o := range first {
		switch {
		case o.Status == http.StatusOK && o.Degraded:
			sawDegraded = true
		case o.Status == http.StatusOK && !o.Degraded:
			sawClean = true
		}
	}
	if !sawDegraded || !sawClean {
		t.Fatalf("p=0.5 schedule too one-sided: degraded=%v clean=%v (%+v)", sawDegraded, sawClean, first)
	}
}
