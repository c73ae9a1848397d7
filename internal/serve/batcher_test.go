package serve

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func newJob(ctx context.Context) *job {
	if ctx == nil {
		ctx = context.Background()
	}
	return &job{ctx: ctx, result: make(chan jobResult, 1), enqueued: time.Now()}
}

func echoProcess(batches *[][]*job, mu *sync.Mutex) func([]*job) {
	return func(batch []*job) {
		mu.Lock()
		*batches = append(*batches, batch)
		mu.Unlock()
		for _, j := range batch {
			j.trySend(jobResult{})
		}
	}
}

// gatedProcess records every batch it is handed and blocks until gate
// closes. It signals entered (without blocking) as a batch arrives, so a
// test knows the dispatcher is held, not still collecting, before it
// queues more work.
func gatedProcess(batches *[][]*job, mu *sync.Mutex, entered chan<- struct{}, gate <-chan struct{}) func([]*job) {
	record := echoProcess(batches, mu)
	return func(batch []*job) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		record(batch)
	}
}

func batchSizes(batches [][]*job) []int {
	sizes := make([]int, len(batches))
	for i := range batches {
		sizes[i] = len(batches[i])
	}
	return sizes
}

func TestBatcherCoalesces(t *testing.T) {
	// The dispatcher never waits for company: a lone job dispatches at
	// once. Jobs that queue while that batch holds the pool (here: the
	// gate) form the next batches, MaxBatch at a time. The boundaries are
	// scheduling facts, not wall-clock races.
	var batches [][]*job
	var mu sync.Mutex
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	b := newBatcher(8, 64, 1, gatedProcess(&batches, &mu, entered, gate))
	defer b.Drain(context.Background())

	jobs := []*job{newJob(nil)}
	if err := b.Submit(jobs[0]); err != nil {
		t.Fatal(err)
	}
	<-entered // the first job dispatched alone and is held at the gate
	for i := 0; i < 9; i++ {
		j := newJob(nil)
		jobs = append(jobs, j)
		if err := b.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	for i, j := range jobs {
		select {
		case <-j.result:
		case <-time.After(2 * time.Second):
			t.Fatalf("job %d never completed", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got := batchSizes(batches); !reflect.DeepEqual(got, []int{1, 8, 1}) {
		t.Fatalf("batch sizes %v, want [1 8 1]", got)
	}
}

func TestBatcherQueueFull(t *testing.T) {
	gate := make(chan struct{})
	b := newBatcher(1, 2, 1, func(batch []*job) {
		<-gate
		for _, j := range batch {
			j.trySend(jobResult{})
		}
	})
	defer func() {
		close(gate)
		b.Drain(context.Background())
	}()

	// One job occupies the dispatcher; two fill the queue. The queue can
	// momentarily have free space while the dispatcher pulls a job, so
	// submit until rejection rather than asserting an exact count.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := b.Submit(newJob(nil)); errors.Is(err, ErrQueueFull) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("bounded queue never rejected")
		}
	}
}

func TestBatcherDrainCompletesQueuedJobs(t *testing.T) {
	// A first job holds the dispatcher at the gate, so all n jobs are
	// provably still queued when Drain starts — exactly the case the
	// no-accepted-job-is-dropped contract covers.
	var batches [][]*job
	var mu sync.Mutex
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	b := newBatcher(4, 64, 1, gatedProcess(&batches, &mu, entered, gate))
	if err := b.Submit(newJob(nil)); err != nil {
		t.Fatal(err)
	}
	<-entered
	const n = 17
	jobs := make([]*job, n)
	for i := range jobs {
		jobs[i] = newJob(nil)
		if err := b.Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A cancelled context closes intake and returns at once, because the
	// dispatcher is still held; the second Drain waits for it to finish.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Drain(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with the dispatcher held: %v, want context.Canceled", err)
	}
	close(gate)
	ctx, cancelWait := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelWait()
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := batchSizes(batches)
	mu.Unlock()
	// The held job, then the queue in MaxBatch-sized chunks.
	if want := []int{1, 4, 4, 4, 4, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batch sizes %v, want %v", got, want)
	}
	for i, j := range jobs {
		select {
		case <-j.result:
		default:
			t.Fatalf("job %d got no result after drain", i)
		}
	}
	if depth := obsQueueDepth.Value(); depth != 0 {
		t.Fatalf("serve.queue.depth %v after drain, want 0", depth)
	}
	// Intake is closed for good.
	if err := b.Submit(newJob(nil)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain: %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestBatcherDrainTimeout(t *testing.T) {
	// A cancelled context stands in for an elapsed drain deadline — the
	// stuck scoring pass guarantees the dispatcher can never finish, so
	// Drain must return the context's error rather than hang (no wall-clock
	// race: the outcome is the same no matter how the goroutines schedule).
	block := make(chan struct{})
	b := newBatcher(1, 8, 1, func(batch []*job) {
		<-block
	})
	if err := b.Submit(newJob(nil)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with a stuck pass: %v, want context.Canceled", err)
	}
	close(block)
}

func TestBatcherPanicIsolation(t *testing.T) {
	b := newBatcher(8, 64, 1, func(batch []*job) {
		panic("scoring exploded")
	})
	defer b.Drain(context.Background())
	j := newJob(nil)
	if err := b.Submit(j); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-j.result:
		if res.err == nil || !strings.Contains(res.err.Error(), "scoring exploded") {
			t.Fatalf("panicking pass delivered %v, want wrapped panic error", res.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("panicking pass left the handler hanging")
	}

	// The dispatcher survived: a following job still gets a result.
	j2 := newJob(nil)
	if err := b.Submit(j2); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j2.result:
	case <-time.After(2 * time.Second):
		t.Fatal("dispatcher died after a panic")
	}
}

func TestScoreJobsSkipsExpired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := newJob(ctx)
	scoreJobs([]*job{j}, 1)
	select {
	case res := <-j.result:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("expired job got %v, want context.Canceled", res.err)
		}
	default:
		t.Fatal("expired job got no result")
	}
}
