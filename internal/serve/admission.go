package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Admission outcomes that map to HTTP backpressure responses.
var (
	// ErrQueueFull means every admission slot is taken (HTTP 429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining means intake is closed (HTTP 503).
	ErrDraining = errors.New("serve: draining")
)

// job is one resolved utterance of a scoring pass: the model it resolved
// against, its TFLLR-scaled vectors by front-end index, and the channel
// its result is delivered on (buffered, so a departed handler never
// blocks the pass). span is the utterance's trace node, nil when tracing
// is off; the pass hangs its per-front-end scoring spans off it.
type job struct {
	ctx     context.Context
	model   *Model
	vectors map[int]*sparse.Vector
	result  chan jobResult
	span    *obs.Span
}

type jobResult struct {
	scores map[int][]float64
	// feErrs records per-front-end failures of a job that still produced
	// scores for its surviving front-ends (the graceful-degradation path).
	// err is set only when the job produced nothing at all.
	feErrs map[int]error
	err    error
}

// trySend delivers a result without ever blocking: the buffer holds one
// result, and a job is completed at most once (late error deliveries to a
// departed handler are dropped).
func (j *job) trySend(res jobResult) {
	select {
	case j.result <- res:
	default:
	}
}

// admission bounds the scoring passes in flight. A scoring call — one
// /v1/score or /v1/score/batch request — takes one of its slots for its
// whole pass, however many utterances it carries; the pass runs at once
// on its own goroutine and gives the slot back when it ends. There is no
// queue: a call that finds every slot taken is rejected.
type admission struct {
	slots   chan struct{}
	process func([]*job) // scores one pass; tests swap in gated stand-ins

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

// newAdmission sizes the admission bound and the scoring pool of each
// pass (workers < 1: GOMAXPROCS).
func newAdmission(slots, workers int) *admission {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &admission{
		slots:   make(chan struct{}, max(slots, 1)),
		process: func(batch []*job) { scoreJobs(batch, workers) },
	}
}

// submit admits batch as one scoring pass without blocking. Every job's
// result channel receives exactly one result unless submit returns an
// error.
func (a *admission) submit(batch []*job) error {
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
		a.runPass(batch)
	}()
	return nil
}

// drain stops intake (further submits fail with ErrDraining) and waits
// for every admitted pass to end — or for ctx. No admitted job is
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

// runPass invokes process with a safety net: if the whole pass panics
// (beyond the per-task isolation inside scoreJobs), every job in it
// still gets an error result so no handler hangs until its deadline.
func (a *admission) runPass(batch []*job) {
	defer func() {
		if r := recover(); r != nil {
			obsPanics.Inc()
			for _, j := range batch {
				j.trySend(jobResult{err: fmt.Errorf("serve: scoring pass panicked: %v", r)})
			}
		}
	}()
	// Chaos hook: a fault at serve.batch exercises this very safety net —
	// an injected panic here must turn into error results, never a crash.
	faultinject.Disturb("serve.batch")
	a.process(batch)
}

// scoreJobs is the SVM scoring pass: the batch flattens into one
// (job, front-end) task list scored by a single instrumented pool, so the
// utterances of a batch request cost one pool spin-up, not one each.
// Tasks are ordered front-end-major so a front-end's SVM weight matrices
// are reused across every job in the batch while they are cache-hot,
// instead of being re-streamed per job.
func scoreJobs(batch []*job, workers int) {
	type task struct {
		j  *job
		fe int
	}
	var tasks []task
	live := batch[:0:0]
	for _, j := range batch {
		if err := j.ctx.Err(); err != nil {
			// Expired before its pass began: don't waste the pool on it.
			obsExpired.Inc()
			if j.span != nil {
				j.span.SetLabel("error", "expired before scoring: "+err.Error())
			}
			j.trySend(jobResult{err: err})
			continue
		}
		live = append(live, j)
		for fe := range j.vectors {
			tasks = append(tasks, task{j: j, fe: fe})
		}
	}
	if len(tasks) == 0 {
		return
	}
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].fe < tasks[b].fe })
	type taskOut struct {
		scores []float64
		err    error
	}
	outs := make([]taskOut, len(tasks))
	parallel.ForPoolWorkers("serve-score", len(tasks), workers, func(i int) {
		t := tasks[i]
		fe := &t.j.model.Bundle.FrontEnds[t.fe]
		var sp *obs.Span
		if t.j.span != nil {
			sp = t.j.span.StartChild("score.fe")
			sp.SetLabel("fe", fe.Name)
		}
		// A panicking task poisons only its own front-end within its own
		// job, not the batch or the process (parallel.ForWorkers would
		// re-panic on the pool goroutine).
		defer func() {
			if r := recover(); r != nil {
				obsPanics.Inc()
				outs[i].err = fmt.Errorf("serve: scoring panicked: %v", r)
			}
			if sp != nil {
				if outs[i].err != nil {
					sp.SetLabel("error", outs[i].err.Error())
				}
				sp.End()
			}
		}()
		if err := faultinject.At("serve.score.fe." + fe.Name); err != nil {
			outs[i].err = err
			return
		}
		outs[i].scores = fe.Scores(t.j.vectors[t.fe])
	})
	// Reassemble per job. A front-end failure degrades only that job's
	// fusion input (the surviving front-ends still score); the job-level
	// error path is reserved for jobs where nothing survived.
	scores := make(map[*job]map[int][]float64, len(live))
	feErrs := make(map[*job]map[int]error)
	for i, t := range tasks {
		if outs[i].err != nil {
			m, ok := feErrs[t.j]
			if !ok {
				m = make(map[int]error)
				feErrs[t.j] = m
			}
			m[t.fe] = outs[i].err
			obs.GetCounter("serve.fe.failures." + t.j.model.Bundle.FrontEnds[t.fe].Name).Inc()
			continue
		}
		m, ok := scores[t.j]
		if !ok {
			m = make(map[int][]float64, len(t.j.vectors))
			scores[t.j] = m
		}
		m[t.fe] = outs[i].scores
	}
	for _, j := range live {
		s := scores[j]
		errs := feErrs[j]
		if len(s) == 0 {
			// Every requested front-end failed: no fusion input survives.
			var err error
			for _, e := range errs {
				err = e
				break
			}
			if err == nil {
				err = errors.New("serve: no front-end produced scores")
			}
			j.trySend(jobResult{err: err})
			continue
		}
		j.trySend(jobResult{scores: s, feErrs: errs})
	}
}
