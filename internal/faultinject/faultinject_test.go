package faultinject

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestDisabledIsNoop(t *testing.T) {
	Disable()
	if err := At("any.site"); err != nil {
		t.Fatalf("disabled At returned %v", err)
	}
	Disturb("any.site") // must not panic
	if Snapshot() != nil {
		t.Fatal("disabled snapshot not nil")
	}
}

func TestEveryScheduleIsExact(t *testing.T) {
	defer Enable(&Plan{Seed: 1, Rules: []Rule{
		{Site: "s", Kind: KindError, Every: 3, After: 2},
	}})()
	var fired []int
	for i := 1; i <= 12; i++ {
		if err := At("s"); err != nil {
			fired = append(fired, i)
		}
	}
	// After skips hits 1–2; Every=3 then fires on post-skip hits 3,6,9 →
	// absolute hits 5, 8, 11.
	want := []int{5, 8, 11}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	st := Snapshot()["s"]
	if st.Hits != 12 || st.Fires != 3 {
		t.Fatalf("stats %+v, want 12 hits / 3 fires", st)
	}
}

func TestProbScheduleIsDeterministic(t *testing.T) {
	run := func() []int {
		defer Enable(&Plan{Seed: 42, Rules: []Rule{
			{Site: "p", Kind: KindError, Prob: 0.3},
		}})()
		var fired []int
		for i := 0; i < 200; i++ {
			if err := At("p"); err != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("degenerate schedule: %d fires of 200 at p=0.3", len(a))
	}
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
	// A different seed must give a different schedule.
	defer Enable(&Plan{Seed: 43, Rules: []Rule{
		{Site: "p", Kind: KindError, Prob: 0.3},
	}})()
	var c []int
	for i := 0; i < 200; i++ {
		if err := At("p"); err != nil {
			c = append(c, i)
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestSitesHaveIndependentStreams(t *testing.T) {
	// Hitting site B must not perturb site A's schedule.
	fire := func(interleave bool) []int {
		defer Enable(&Plan{Seed: 7, Rules: []Rule{
			{Site: "a", Kind: KindError, Prob: 0.25},
			{Site: "b", Kind: KindError, Prob: 0.9},
		}})()
		var fired []int
		for i := 0; i < 100; i++ {
			if interleave {
				_ = At("b")
				_ = At("b")
			}
			if err := At("a"); err != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := fire(false), fire(true)
	if len(a) != len(b) {
		t.Fatalf("site A schedule changed when B was hit: %d vs %d fires", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("site A schedule changed when B was hit")
		}
	}
}

func TestCountCapsFires(t *testing.T) {
	defer Enable(&Plan{Seed: 1, Rules: []Rule{
		{Site: "c", Kind: KindError, Every: 1, Count: 2},
	}})()
	n := 0
	for i := 0; i < 10; i++ {
		if At("c") != nil {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("%d fires with Count=2", n)
	}
}

func TestPrefixRuleAndPrecedence(t *testing.T) {
	defer Enable(&Plan{Seed: 1, Rules: []Rule{
		{Site: "serve.score.fe.*", Kind: KindError, Every: 1, Err: "wild"},
		{Site: "serve.score.fe.HU", Kind: KindError, Every: 1, Err: "exact"},
	}})()
	err := At("serve.score.fe.HU")
	if err == nil || !strings.Contains(err.Error(), "exact") {
		t.Fatalf("exact rule did not win: %v", err)
	}
	err = At("serve.score.fe.RU")
	if err == nil || !strings.Contains(err.Error(), "wild") {
		t.Fatalf("prefix rule did not match: %v", err)
	}
	if At("serve.batch") != nil {
		t.Fatal("unrelated site fired")
	}
}

func TestPanicAndDisturb(t *testing.T) {
	defer Enable(&Plan{Seed: 1, Rules: []Rule{
		{Site: "boom", Kind: KindPanic, Every: 1},
		{Site: "err", Kind: KindError, Every: 1},
	}})()
	mustPanic := func(f func()) (val any) {
		defer func() { val = recover() }()
		f()
		return nil
	}
	v := mustPanic(func() { _ = At("boom") })
	ie, ok := v.(*InjectedError)
	if !ok || ie.Site != "boom" {
		t.Fatalf("panic value %v, want *InjectedError at boom", v)
	}
	// Disturb surfaces error-kind rules as panics too.
	if v := mustPanic(func() { Disturb("err") }); v == nil {
		t.Fatal("Disturb swallowed an error-kind fault")
	}
}

func TestDelayKind(t *testing.T) {
	defer Enable(&Plan{Seed: 1, Rules: []Rule{
		{Site: "slow", Kind: KindDelay, Every: 1, Delay: 10 * time.Millisecond},
	}})()
	t0 := time.Now()
	if err := At("slow"); err != nil {
		t.Fatalf("delay fault returned error %v", err)
	}
	if d := time.Since(t0); d < 10*time.Millisecond {
		t.Fatalf("delay fault stalled only %v", d)
	}
}

func TestReaderTornStream(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 100)
	defer Enable(&Plan{Seed: 1, Rules: []Rule{
		{Site: "read", Kind: KindError, Every: 1, Bytes: 37},
	}})()
	r := Reader("read", bytes.NewReader(data))
	got, err := io.ReadAll(r)
	var ie *InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("torn read ended with %v, want *InjectedError", err)
	}
	if len(got) != 37 {
		t.Fatalf("read %d bytes before the tear, want 37", len(got))
	}
	// No fault scheduled → stream untouched.
	Disable()
	r2 := Reader("read", bytes.NewReader(data))
	if got, err := io.ReadAll(r2); err != nil || len(got) != 100 {
		t.Fatalf("clean read got %d bytes, err %v", len(got), err)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=9; serve.score.fe.HU:error:p=0.25,count=3; parallel.task:panic:every=50,after=10; serve.batch:delay:p=0.1,delay=5ms; persist.load.read:error:bytes=128,every=2,err=torn")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || len(p.Rules) != 4 {
		t.Fatalf("parsed %+v", p)
	}
	r := p.Rules[0]
	if r.Site != "serve.score.fe.HU" || r.Kind != KindError || r.Prob != 0.25 || r.Count != 3 {
		t.Fatalf("rule 0: %+v", r)
	}
	if p.Rules[1].Every != 50 || p.Rules[1].After != 10 || p.Rules[1].Kind != KindPanic {
		t.Fatalf("rule 1: %+v", p.Rules[1])
	}
	if p.Rules[2].Delay != 5*time.Millisecond {
		t.Fatalf("rule 2: %+v", p.Rules[2])
	}
	if p.Rules[3].Bytes != 128 || p.Rules[3].Err != "torn" {
		t.Fatalf("rule 3: %+v", p.Rules[3])
	}
	for _, bad := range []string{
		"", "seed=1", "site", "site:nope:p=1", "site:error", "site:error:p=2",
		"site:error:q=1", "seed=x; site:error:p=1", "site:error:p",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", bad)
		}
	}
}
