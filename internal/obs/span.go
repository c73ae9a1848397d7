package obs

import (
	"sync"
	"time"
)

// Span is one timed region of the pipeline. Spans form trees: a root span
// ("pipeline.build", "table5", "dba.run") is created with StartSpan and
// files itself into its registry's trace on End; stages within it are
// children created with StartChild. Spans carry numeric attributes
// (counts, RTFs) and string labels (front-end names, methods), so the
// serialized trace is self-describing.
//
// Spans are safe for concurrent use: parallel stages may call StartChild
// on a shared parent from many goroutines.
//
// A nil *Span is an untraced region: every method is a no-op on it, and
// StartChild returns nil, so code under a possibly-untraced parent needs
// no guard.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    map[string]float64
	labels   map[string]string
	children []*Span
	reg      *Registry // non-nil on roots only
}

// StartSpan begins a root span recorded in the default registry.
func StartSpan(name string) *Span { return defaultRegistry.StartSpan(name) }

// NewSpan begins a detached root span that never files into a registry
// trace — the per-request tracing idiom: the serving tier owns the
// span's lifecycle and hands the finished tree to a TraceBuffer instead
// of the process-wide trace (which would otherwise fill its bounded
// root list with request noise).
func NewSpan(name string) *Span { return &Span{name: name, start: time.Now()} }

// Data serializes the span subtree (running spans report their elapsed
// time so far); nil for a nil span.
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	return spanData(s)
}

// StartSpan begins a root span recorded in this registry.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now(), reg: r}
}

// StartChild begins a child span. Children end independently of the
// parent; a parent ending first simply stops attributing the child's tail
// to itself (the trace keeps both durations).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildOf is StartChild when parent is non-nil and a default-registry root
// span otherwise — the ctx-free idiom for functions that may run either
// standalone or nested under a caller's span.
func ChildOf(parent *Span, name string) *Span {
	if parent == nil {
		return StartSpan(name)
	}
	return parent.StartChild(name)
}

// Name returns the span name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr records a numeric attribute (count, RTF, dimension…).
func (s *Span) SetAttr(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]float64)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// SetLabel records a string attribute (front-end name, method…).
func (s *Span) SetLabel(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.labels == nil {
		s.labels = make(map[string]string)
	}
	s.labels[key] = v
	s.mu.Unlock()
}

// End stops the clock (idempotent) and, for root spans, files the span
// into the registry trace. It returns the span duration (zero for a nil
// span).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	d := s.dur
	reg := s.reg
	s.reg = nil // record once even if End races or repeats
	s.mu.Unlock()
	if reg != nil {
		reg.recordRoot(s)
	}
	return d
}
