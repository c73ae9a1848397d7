package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Admission outcomes that map to HTTP backpressure responses.
var (
	// ErrQueueFull means every admission slot is taken (HTTP 429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining means intake is closed (HTTP 503).
	ErrDraining = errors.New("serve: draining")
)

// pass is one admitted request's scoring work: the context and model
// the request resolved against, its resolved utterances (the pass reads
// their Vectors and Span), one result per utterance, and done, which the
// pass closes once every result is final; the handler reads res after.
type pass struct {
	ctx   context.Context
	model *Model
	utts  []*Utterance
	res   []uttResult
	done  chan struct{}
}

type uttResult struct {
	scores map[int][]float64
	// feErrs records per-front-end failures of an utterance that still
	// scored its surviving front-ends (graceful degradation). err is set
	// only when the utterance produced nothing at all.
	feErrs map[int]error
	err    error
}

// admission bounds the scoring passes in flight. A scoring call — one
// /v1/score or /v1/score/batch request — takes one of its slots for its
// whole pass, however many utterances it carries; the pass runs at once
// on its own goroutine and gives the slot back when it ends. There is no
// queue: a call that finds every slot taken is rejected.
type admission struct {
	slots   chan struct{}
	process func(*pass) // scores one pass; tests swap in gated stand-ins

	mu     sync.RWMutex // guards closed against concurrent submit/drain
	closed bool
	passes sync.WaitGroup
}

// Backpressure counters (obs run reports and /metricsz).
var (
	obsRejected = obs.GetCounter("serve.queue.rejected")
	obsPanics   = obs.GetCounter("serve.score.panics")
	obsExpired  = obs.GetCounter("serve.jobs.expired")
)

func newAdmission(slots int) *admission {
	return &admission{slots: make(chan struct{}, max(slots, 1)), process: scorePass}
}

// submit admits p without blocking. Unless submit returns an error, p.done
// is closed once every utterance's result is final.
func (a *admission) submit(p *pass) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		return ErrDraining
	}
	select {
	case a.slots <- struct{}{}:
	default:
		obsRejected.Inc()
		return ErrQueueFull
	}
	a.passes.Add(1)
	go func() {
		defer func() {
			<-a.slots
			a.passes.Done()
		}()
		a.runPass(p)
	}()
	return nil
}

// drain stops intake (further submits fail with ErrDraining) and waits
// for every admitted pass to end — or for ctx. No admitted pass is
// dropped.
func (a *admission) drain(ctx context.Context) error {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	done := make(chan struct{})
	go func() {
		a.passes.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runPass invokes process with a safety net, then closes p.done: if the
// whole pass panics (beyond the per-task isolation inside scorePass),
// every utterance in it gets an error result so no handler waits out its
// deadline.
func (a *admission) runPass(p *pass) {
	defer close(p.done)
	defer func() {
		if r := recover(); r != nil {
			obsPanics.Inc()
			err := fmt.Errorf("serve: scoring pass panicked: %v", r)
			for i := range p.res {
				p.res[i] = uttResult{err: err}
			}
		}
	}()
	// Chaos hook: a fault at serve.batch exercises this very safety net —
	// an injected panic here must turn into error results, never a crash.
	faultinject.Disturb("serve.batch")
	a.process(p)
}

// scorePass is the SVM scoring pass: the request's utterances flatten
// into one (utterance, front-end) task list scored by a single instrumented
// pool of GOMAXPROCS goroutines, so a batch request costs one pool
// spin-up, not one per utterance. Tasks are ordered front-end-major so a
// front-end's SVM weight matrices are reused across every utterance of
// the pass while they are cache-hot, instead of being re-streamed per
// utterance.
func scorePass(p *pass) {
	if err := p.ctx.Err(); err != nil {
		// Expired before its pass began: don't waste the pool on it.
		for i, u := range p.utts {
			obsExpired.Inc()
			u.Span.SetLabel("error", "expired before scoring: "+err.Error())
			p.res[i].err = err
		}
		return
	}
	type task struct {
		u  int // index into p.utts and p.res
		fe int
	}
	var tasks []task
	for i, u := range p.utts {
		for fe := range u.Vectors {
			tasks = append(tasks, task{u: i, fe: fe})
		}
	}
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].fe < tasks[b].fe })
	type taskOut struct {
		scores []float64
		err    error
	}
	outs := make([]taskOut, len(tasks))
	parallel.ForPool("serve-score", len(tasks), func(i int) {
		t := tasks[i]
		fe := &p.model.Bundle.FrontEnds[t.fe]
		u := p.utts[t.u]
		sp := u.Span.StartChild("score.fe")
		sp.SetLabel("fe", fe.Name)
		// A panicking task poisons only its own front-end within its own
		// utterance, not the pass or the process (parallel.ForWorkers would
		// re-panic on the pool goroutine).
		defer func() {
			if r := recover(); r != nil {
				obsPanics.Inc()
				outs[i].err = fmt.Errorf("serve: scoring panicked: %v", r)
			}
			if outs[i].err != nil {
				sp.SetLabel("error", outs[i].err.Error())
			}
			sp.End()
		}()
		if err := faultinject.At("serve.score.fe." + fe.Name); err != nil {
			outs[i].err = err
			return
		}
		outs[i].scores = fe.Scores(u.Vectors[t.fe])
	})
	// A front-end failure degrades only its utterance's fusion input (the
	// surviving front-ends still score); the utterance-level error is
	// reserved for utterances where nothing survived.
	for i, t := range tasks {
		res := &p.res[t.u]
		if outs[i].err != nil {
			if res.feErrs == nil {
				res.feErrs = make(map[int]error)
			}
			res.feErrs[t.fe] = outs[i].err
			obs.GetCounter("serve.fe.failures." + p.model.Bundle.FrontEnds[t.fe].Name).Inc()
			continue
		}
		if res.scores == nil {
			res.scores = make(map[int][]float64, len(p.utts[t.u].Vectors))
		}
		res.scores[t.fe] = outs[i].scores
	}
	for i := range p.res {
		res := &p.res[i]
		if len(res.scores) > 0 {
			continue
		}
		// Every requested front-end failed: no fusion input survives.
		res.err = errors.New("serve: no front-end produced scores")
		for _, e := range res.feErrs {
			res.err = e
			break
		}
	}
}
