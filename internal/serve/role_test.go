package serve

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testbundle"
)

// loopRole swaps a role's background loop for a test's.
type loopRole struct {
	Role
	loop func(context.Context)
}

func (r loopRole) Loop(ctx context.Context) { r.loop(ctx) }

// TestRunWaitsForBackgroundLoop: a role's background loop (adaptation,
// fleet repair) is cancelled with Run's ctx and has exited by the time
// Run returns — no loop outlives the server that started it.
func TestRunWaitsForBackgroundLoop(t *testing.T) {
	dir := t.TempDir()
	testbundle.Write(t, dir, 1)
	s := newTestServer(t, dir, nil)
	started := make(chan struct{})
	var exited atomic.Bool
	s.role = loopRole{Role: s.role, loop: func(ctx context.Context) {
		close(started)
		<-ctx.Done()
		// An exit that lags its cancellation: Run must still wait for it.
		time.Sleep(20 * time.Millisecond)
		exited.Store(true)
	}}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()
	<-started
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !exited.Load() {
		t.Fatal("Run returned before the background loop exited")
	}
}
