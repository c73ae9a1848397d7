package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// Role is what one serving role plugs into Server's request path: the
// standalone daemon scores in process under its admission bound, the
// cluster coordinator (internal/cluster) scatters to shard workers.
// Everything else on the path is Server's, the same code for every role.
type Role interface {
	// Resolve pins what one request scores against. An error answers 503,
	// on scoring requests and /readyz alike.
	Resolve() (*Pin, error)
	// Ready returns the /readyz body for a pinned model, or an error that
	// answers 503.
	Ready(p *Pin) (any, error)
	// Describe adds the role's entries to the /metricsz meta.
	Describe(meta map[string]string)
	// Reload serves POST /-/reload: the response body, or the status and
	// error to answer with. The previous model keeps serving on failure.
	Reload(ctx context.Context) (body any, status int, err error)
	// Loop is the role's background loop (online adaptation, fleet
	// repair). It returns once ctx is done; Run waits for it.
	Loop(ctx context.Context)
}

// Pin is the model state one request was admitted against, with the
// role's scoring step bound to it. Score turns every utterance of sc into
// per-front-end score rows and errors, or a whole-utterance failure.
type Pin struct {
	Model *Model
	// Generation is the cluster generation responses report (zero for a
	// standalone bundle).
	Generation int64
	Score      func(ctx context.Context, sc *Scoring)
}

// Scoring is one request's work for a scoring step.
type Scoring struct {
	// Utts are the utterances that need the front-end battery, each
	// resolved against the pinned model (tier-1 cascade exits and
	// utterances that failed resolution never reach the step); exactly one
	// for /v1/score.
	Utts []*Utterance
	// Batch is set for /v1/score/batch.
	Batch bool
	// Root is the request's root span and TraceID its W3C trace id (nil
	// and empty with tracing off).
	Root    *obs.Span
	TraceID string
}

// Utterance is one utterance passing through a scoring step. The step
// fills Scores and FrontEndErrs — per-front-end rows and failures keyed
// by bundle front-end index, the input of AssembleResult — or, when
// nothing could be scored, Err with the HTTP Status a single request
// answers.
type Utterance struct {
	Req *ScoreRequest
	// Span is the utterance's trace node: the root span of a single
	// request, an "utt" child in a batch (nil with tracing off).
	Span *obs.Span
	// Vectors are the utterance's scoring vectors by bundle front-end
	// index, as resolution built them against the pinned model (nil on a
	// routing model, which scores nothing).
	Vectors map[int]*sparse.Vector

	Scores       map[int][]float64
	FrontEndErrs map[int]error
	Err          error
	Status       int
}

// NewWithRole builds a server whose request path scores through role.
// namespace prefixes the path's metric and span names (<namespace>.http.*,
// .cascade.*, .score.degraded, root spans <namespace>.score/batch), so a
// co-resident standalone tier keeps its serve.* names apart in one obs
// registry. The request path reads cfg's deadlines, body limit, tracing
// and access-log switches and cascade, and Reload.Cooldown for a
// breaker-open Retry-After. The rest of cfg (ModelDir, admission, Reload's
// retries, Adapt, WaitForModel) is the role's to read: every lred role
// shares one Config, and a fleet coordinator reads ModelDir and Reload.
func NewWithRole(cfg Config, namespace string, role Role) (*Server, error) {
	s, err := newServer(cfg, namespace)
	if err != nil {
		return nil, err
	}
	s.role = role
	return s, nil
}

// standalone is the in-process role of a server built by New: the
// registry's current model, scored in one admitted pass per request,
// with the online-adaptation loop in the background.
type standalone Server

// score admits sc's utterances as one scoring pass and waits for the
// pass to finish or for ctx.
func (s *standalone) score(ctx context.Context, m *Model, sc *Scoring) {
	p := &pass{ctx: ctx, model: m, utts: sc.Utts, res: make([]uttResult, len(sc.Utts)), done: make(chan struct{})}
	fail := func(err error, status int) {
		for _, u := range sc.Utts {
			u.Err, u.Status = err, status
		}
	}
	if err := s.passes.submit(p); err != nil {
		status := http.StatusTooManyRequests
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		fail(err, status)
		return
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		fail(fmt.Errorf("deadline exceeded: %w", ctx.Err()), http.StatusGatewayTimeout)
		return
	}
	for i, u := range sc.Utts {
		switch res := &p.res[i]; {
		case errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled):
			u.Err, u.Status = res.err, http.StatusGatewayTimeout
		case res.err != nil:
			u.Err, u.Status = res.err, http.StatusInternalServerError
		default:
			u.Scores, u.FrontEndErrs = res.scores, res.feErrs
			(*Server)(s).observeAdapt(u)
		}
	}
}

func (s *standalone) Resolve() (*Pin, error) {
	m := s.reg.Current()
	if m == nil {
		return nil, errors.New("no model loaded")
	}
	return &Pin{Model: m, Generation: m.ClusterGeneration(), Score: func(ctx context.Context, sc *Scoring) {
		s.score(ctx, m, sc)
	}}, nil
}

func (s *standalone) Ready(p *Pin) (any, error) {
	// An open reload breaker means the process cannot pick up new models
	// from disk (SIGHUP, /-/reload and adapt promotions route through it)
	// — not ready for orchestration purposes even though in-flight scoring
	// still works against the current model.
	if s.reloader.breakerOpen() {
		return nil, errors.New("reload circuit breaker open")
	}
	m := p.Model
	return map[string]any{
		"status":        "ready",
		"model_version": m.Version,
		"loaded_at":     m.LoadedAt.UTC().Format(time.RFC3339),
		"front_ends":    m.Manifest.FrontEnds,
		"languages":     len(m.Bundle.Languages),
		"fusion":        m.Bundle.Fusion != nil,
	}, nil
}

func (s *standalone) Describe(meta map[string]string) {
	m := s.reg.Current()
	if m == nil {
		return
	}
	meta["model_version"] = fmt.Sprintf("%d", m.Version)
	meta["front_ends"] = strings.Join(m.Manifest.FrontEnds, ",")
	rank, prec := m.CompressionSummary()
	meta["model_precision"] = prec
	if rank > 0 {
		meta["model_rank"] = fmt.Sprintf("%d", rank)
	}
}

func (s *standalone) Reload(context.Context) (any, int, error) {
	m, err := s.reloader.Reload()
	if errors.Is(err, ErrBreakerOpen) {
		return nil, http.StatusServiceUnavailable, err
	}
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("reload failed (previous model still active): %w", err)
	}
	return map[string]any{"model_version": m.Version, "manifest": m.Manifest}, http.StatusOK, nil
}

func (s *standalone) Loop(ctx context.Context) {
	if s.adapter != nil {
		s.adapter.Run(ctx)
	}
}

// background runs loop on its own goroutine under a child of ctx and
// returns the function that cancels it and waits for it to exit.
func background(ctx context.Context, loop func(context.Context)) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		loop(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}
