package serve

import (
	"fmt"
	"net/http"

	"repro/internal/adapt"
	"repro/internal/persist"
)

// Online adaptation wiring (see internal/adapt and DESIGN.md "Online
// adaptation & safe promotion"). The server owns the adapter: served
// full-battery results feed its observation buffer, its hot swap routes
// through the reloader (so promotion obeys the same retry/backoff and
// circuit-breaker discipline as SIGHUP and /-/reload), and three admin
// endpoints expose it:
//
//	GET  /adaptz            — loop status (enabled:false when off)
//	POST /-/adapt/promote   — force one gated promotion attempt now
//	POST /-/adapt/rollback  — one-command rollback to last-known-good
//
// With Config.Adapt empty or "off" none of this exists: no sidecar is
// read, no goroutine runs, no observation is buffered — serving is
// bit-identical to a build without the subsystem.

// initAdapter constructs the adapter when Config.Adapt selects a policy.
// Fails fast on a bad policy, a missing/corrupt sidecar, or a bundle that
// cannot self-train (int8-quantized): silently serving without the
// requested adaptation would be worse than not starting.
func (s *Server) initAdapter() error {
	spec := s.cfg.Adapt
	if spec == "" || spec == "off" {
		return nil
	}
	pol, err := adapt.ParsePolicy(spec)
	if err != nil {
		return err
	}
	if s.reg.Current() == nil {
		return fmt.Errorf("serve: -adapt needs a loaded model at startup (WaitForModel is incompatible)")
	}
	a, err := adapt.New(adapt.Config{
		Dir:    s.cfg.ModelDir,
		Policy: pol,
		Swap: func() error {
			_, err := s.reloader.Reload()
			return err
		},
		Current: func() *persist.Bundle {
			if m := s.reg.Current(); m != nil {
				return m.Bundle
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	s.adapter = a
	return nil
}

// Adapter exposes the adaptation loop (nil when off) — tests and the
// daemon's status logging.
func (s *Server) Adapter() *adapt.Adapter { return s.adapter }

// observeAdapt offers one scored job to the adaptation buffer: results
// with no failed front-end only (a degraded row would poison
// self-training with scores the client was warned about; the adapter
// itself skips partial batteries, which cannot vote).
func (s *Server) observeAdapt(j *job, res jobResult) {
	if s.adapter == nil || len(res.feErrs) > 0 {
		return
	}
	s.adapter.Observe(j.vectors, res.scores)
}

func (s *Server) handleAdaptz(w http.ResponseWriter, r *http.Request) {
	if s.adapter == nil {
		writeJSON(w, http.StatusOK, adapt.Status{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, s.adapter.Status())
}

// adaptAdmin gates the two mutating endpoints: the admin checks, then
// 503 when adaptation is off.
func (s *Server) adaptAdmin(w http.ResponseWriter, r *http.Request) bool {
	if !s.adminPost(w, r) {
		return false
	}
	if s.adapter == nil {
		writeError(w, http.StatusServiceUnavailable, "adaptation disabled (start with -adapt)")
		return false
	}
	return true
}

// handleAdaptPromote forces one promotion attempt (bypassing only the
// min-utts floor, never a gate). Gate vetoes and skips are 200 with the
// outcome in the body — they are the loop working as designed, not
// server errors.
func (s *Server) handleAdaptPromote(w http.ResponseWriter, r *http.Request) {
	if !s.adaptAdmin(w, r) {
		return
	}
	res, err := s.adapter.TryPromote(true)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleAdaptRollback(w http.ResponseWriter, r *http.Request) {
	if !s.adaptAdmin(w, r) {
		return
	}
	res, err := s.adapter.Rollback("operator request")
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
