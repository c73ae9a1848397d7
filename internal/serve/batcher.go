package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Submit outcomes that map to HTTP backpressure responses.
var (
	// ErrQueueFull means the bounded queue rejected the job (HTTP 429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining means the batcher no longer accepts work (HTTP 503).
	ErrDraining = errors.New("serve: draining")
)

// job is one admitted utterance: the model it resolved against, its
// TFLLR-scaled vectors by front-end index, and the channel its result is
// delivered on (buffered, so a departed handler never blocks the
// dispatcher).
type job struct {
	ctx      context.Context
	model    *Model
	id       string
	vectors  map[int]*sparse.Vector
	result   chan jobResult
	enqueued time.Time

	// Request-scoped trace state (nil/zero when tracing is disabled).
	// span is the request's span node; queueSpan covers enqueue→dequeue,
	// batchSpan dequeue→dispatch; per-front-end scoring spans hang off
	// span inside scoreJobs. batchID is the dispatch batch the job rode
	// in, written by the dispatcher; atomic because a handler whose
	// deadline fired reads it while the dispatcher may still be assigning
	// the job to a batch.
	span      *obs.Span
	queueSpan *obs.Span
	batchSpan *obs.Span
	batchID   atomic.Int64
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

// Batcher coalesces admitted jobs into micro-batches: the dispatcher
// takes the first queued job, keeps collecting until MaxBatch jobs or
// MaxWait elapsed, then runs the whole batch through one worker pool.
// Under load the queue is never empty, so batches fill instantly and the
// wait never triggers; at low load a lone request pays at most MaxWait of
// added latency.
type Batcher struct {
	maxBatch int
	maxWait  time.Duration
	workers  int
	process  func([]*job)
	clock    Clock
	// windowed feeds the rolling 1m/5m views next to the cumulative
	// metrics; the server turns it off only for the tracing-overhead
	// benchmark baseline.
	windowed bool

	queue   chan *job
	drainCh chan struct{}
	done    chan struct{}

	mu     sync.RWMutex // guards closed against concurrent Submit/Drain
	closed bool
}

// Queue-depth gauge and backpressure counters (obs run reports), plus
// the rolling-window views /metricsz reports as 1m/5m live metrics.
var (
	obsQueueDepth = obs.GetGauge("serve.queue.depth")
	obsQueueWait  = obs.GetHistogram("serve.queue.wait_seconds")
	obsBatches    = obs.GetCounter("serve.batches")
	obsBatchJobs  = obs.GetCounter("serve.batched_jobs")
	obsBatchSize  = obs.GetHistogram("serve.batch.size")
	obsRejected   = obs.GetCounter("serve.queue.rejected")
	obsPanics     = obs.GetCounter("serve.score.panics")
	obsExpired    = obs.GetCounter("serve.jobs.expired")

	wobsQueueWait = obs.GetWindow("serve.queue.wait_seconds")
	wobsBatchSize = obs.GetWindow("serve.batch.size")

	// batchSeq numbers dispatch batches process-wide so traces and
	// access-log lines can say which jobs shared a scoring pass.
	batchSeq atomic.Int64
)

// newBatcher starts a dispatcher. process scores one batch; nil selects
// the real scoring pass (tests inject blocking or panicking stand-ins).
// clock drives the batch-fill wait; nil selects the real clock (tests
// inject a fake one to make coalescing deterministic).
func newBatcher(maxBatch, queueDepth, workers int, maxWait time.Duration, process func([]*job), clock Clock) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if clock == nil {
		clock = RealClock{}
	}
	b := &Batcher{
		maxBatch: maxBatch,
		maxWait:  maxWait,
		workers:  workers,
		clock:    clock,
		windowed: true,
		queue:    make(chan *job, queueDepth),
		drainCh:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	b.process = process
	if b.process == nil {
		b.process = b.scoreBatch
	}
	go b.run()
	return b
}

// Submit admits a job without blocking. The job's result channel receives
// exactly one result unless Submit returns an error.
func (b *Batcher) Submit(j *job) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrDraining
	}
	select {
	case b.queue <- j:
		obsQueueDepth.Set(float64(len(b.queue)))
		return nil
	default:
		obsRejected.Inc()
		return ErrQueueFull
	}
}

// Drain stops intake (further Submits fail with ErrDraining), lets the
// dispatcher finish every queued job, and waits for it to exit — or for
// ctx. No accepted job is dropped.
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.drainCh)
	}
	b.mu.Unlock()
	select {
	case <-b.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// noteDequeue marks the moment a job leaves the admission queue: the
// queue-wait histogram/window observe here (not at dispatch, so the
// numbers isolate queueing from batch formation), the job's queue.wait
// span closes, and its batch.form span opens.
func (b *Batcher) noteDequeue(j *job) {
	wait := time.Since(j.enqueued).Seconds()
	obsQueueWait.Observe(wait)
	if b.windowed {
		wobsQueueWait.Observe(wait)
	}
	if j.queueSpan != nil {
		j.queueSpan.End()
		j.queueSpan = nil
		if j.span != nil {
			j.batchSpan = j.span.StartChild("batch.form")
		}
	}
}

// run is the dispatcher loop.
func (b *Batcher) run() {
	defer close(b.done)
	for {
		var first *job
		select {
		case first = <-b.queue:
		case <-b.drainCh:
			// Intake is closed: everything still queued is finished in
			// MaxBatch-sized chunks, then the dispatcher exits.
			for {
				batch := b.collectQueued()
				if len(batch) == 0 {
					return
				}
				b.runBatch(batch)
			}
		}
		b.noteDequeue(first)
		batch := []*job{first}
		timeout := b.clock.After(b.maxWait)
	collect:
		for len(batch) < b.maxBatch {
			select {
			case j := <-b.queue:
				b.noteDequeue(j)
				batch = append(batch, j)
			case <-timeout:
				break collect
			case <-b.drainCh:
				break collect
			}
		}
		obsQueueDepth.Set(float64(len(b.queue)))
		b.runBatch(batch)
	}
}

// collectQueued drains up to maxBatch jobs without waiting.
func (b *Batcher) collectQueued() []*job {
	var batch []*job
	for len(batch) < b.maxBatch {
		select {
		case j := <-b.queue:
			b.noteDequeue(j)
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// runBatch invokes process with a safety net: if the whole pass panics
// (beyond the per-task isolation inside scoreBatch), every job in the
// batch still gets an error result so no handler hangs until its
// deadline.
func (b *Batcher) runBatch(batch []*job) {
	if len(batch) == 0 {
		return
	}
	obsBatches.Inc()
	obsBatchJobs.Add(int64(len(batch)))
	obs.SetGauge("serve.batch.last_size", float64(len(batch)))
	obsBatchSize.Observe(float64(len(batch)))
	if b.windowed {
		wobsBatchSize.Observe(float64(len(batch)))
	}
	id := batchSeq.Add(1)
	for _, j := range batch {
		j.batchID.Store(id)
		if j.batchSpan != nil {
			j.batchSpan.End()
			j.batchSpan = nil
		}
		if j.span != nil {
			j.span.SetAttr("batch.id", float64(id))
			j.span.SetAttr("batch.size", float64(len(batch)))
		}
	}
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
	b.process(batch)
}

// scoreBatch runs the real scoring pass with the batcher's pool size.
func (b *Batcher) scoreBatch(batch []*job) { scoreJobs(batch, b.workers) }

// scoreJobs is the shared SVM scoring pass: the batch flattens into one
// (job, front-end) task list scored by a single instrumented pool, so B
// concurrent requests cost one pool spin-up instead of B. Tasks are
// ordered front-end-major so a front-end's SVM weight matrices are
// reused across every job in the batch while they are cache-hot, instead
// of being re-streamed per job.
func scoreJobs(batch []*job, workers int) {
	type task struct {
		j  *job
		fe int
	}
	var tasks []task
	live := batch[:0:0]
	for _, j := range batch {
		if err := j.ctx.Err(); err != nil {
			// Expired while queued: don't waste the pool on it.
			obsExpired.Inc()
			if j.span != nil {
				j.span.SetLabel("error", "expired in queue: "+err.Error())
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
