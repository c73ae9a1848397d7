package serve

import (
	"io"
	"sync"
	"sync/atomic"
)

// Structured access logging: one JSON object per line, byte for byte the
// request's /tracez record (an obs.TraceEntry), so a log line, the
// /tracez entry, and the client's response all correlate by trace id.
// Lines are sampled (every Nth request) to keep high-QPS logging cheap,
// but degraded and errored requests always log — the same "failures are
// always retained" policy the trace buffer applies.

// accessLogger serializes sampled lines onto one writer. A nil
// *accessLogger is valid and drops everything.
type accessLogger struct {
	mu    sync.Mutex
	w     io.Writer
	every int64
	seen  atomic.Int64
}

func newAccessLogger(w io.Writer, every int) *accessLogger {
	if w == nil {
		return nil
	}
	if every < 1 {
		every = 1
	}
	return &accessLogger{w: w, every: int64(every)}
}

// log writes line, one record and its newline, if the request falls on
// the sampling grid or is forced (degraded/errored). A nil line (a trace
// the buffer could not encode) writes nothing. The mutex keeps this
// logger's lines apart; writing each in one Write keeps another writer
// of a shared stderr from landing between a record and its newline.
func (al *accessLogger) log(line []byte, forced bool) {
	if al == nil {
		return
	}
	n := al.seen.Add(1)
	if ((n-1)%al.every != 0 && !forced) || line == nil {
		return
	}
	al.mu.Lock()
	defer al.mu.Unlock()
	// Write errors are swallowed by design: logging must never fail a
	// request (a full disk or closed pipe degrades to silence).
	_, _ = al.w.Write(line)
}
