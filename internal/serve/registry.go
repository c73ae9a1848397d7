// Package serve is the online scoring subsystem: a versioned model
// registry with atomic hot-swap reload (registry.go), the admission bound
// and SVM scoring pass each request runs inline (admission.go), and the
// HTTP/JSON server that ties them together with deadlines, backpressure,
// and graceful drain (server.go). cmd/lred is the
// daemon entry point; cmd/lre -export-models produces the bundles it
// loads.
//
// The design exploits the shape of PPRVSM scoring (paper Eq. 7–9): once
// the per-front-end TFLLR scalers and one-vs-rest SVM sets are in memory,
// scoring an utterance is one sparse dot-product pass per (front-end,
// language) pair — stateless, read-only, and embarrassingly parallel.
// That is why a single model pointer can be swapped atomically under live
// traffic (in-flight requests keep scoring against the model they
// resolved at admission), and why a request is scored inline in one
// pass: its U utterances over Q front-ends become U·Q independent tasks
// for one instrumented worker pool.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ngram"
	"repro/internal/obs"
	"repro/internal/persist"
)

// Model is one immutable loaded bundle. All fields are read-only after
// construction; requests capture the pointer at admission and keep using
// it even if the registry swaps underneath them.
type Model struct {
	// Bundle is what the loading server's hold rule kept of the bundle
	// (DESIGN.md, "What each role holds").
	Bundle   *persist.Bundle
	Manifest *persist.Manifest
	// Version counts successful loads in this process (1-based), so
	// responses and metrics can attribute scores to a model generation.
	Version  int64
	LoadedAt time.Time
	// Gen records how the bundle root resolved: which adaptation
	// generation is serving (0 = the base export) and whether resolution
	// had to fall back past an unusable commit record or directory.
	Gen persist.ResolveInfo
	// LoadTime is how long resolving, verifying and decoding the bundle
	// took; zero for a bundle installed by Swap, decoded by its caller.
	LoadTime time.Duration
	// Image is the bundle file this model was verified and decoded from,
	// held open; set only by a routing registry (NewRoutingRegistry),
	// whose caller closes it.
	Image *persist.Image

	feIndex map[string]int
	spaces  []*ngram.Space
}

func newModel(b *persist.Bundle, m *persist.Manifest, version int64, info persist.ResolveInfo) *Model {
	mod := &Model{
		Bundle:   b,
		Manifest: m,
		Version:  version,
		LoadedAt: time.Now(),
		Gen:      info,
		feIndex:  make(map[string]int, len(b.FrontEnds)),
		spaces:   make([]*ngram.Space, len(b.FrontEnds)),
	}
	for q := range b.FrontEnds {
		fe := &b.FrontEnds[q]
		mod.feIndex[fe.Name] = q
		mod.spaces[q] = ngram.NewSpace(fe.NumPhones, fe.Order)
	}
	return mod
}

// FrontEndIndex resolves a front-end name to its index in the bundle's
// FrontEnds (the key space of AssembleResult's score rows).
func (m *Model) FrontEndIndex(name string) (int, bool) {
	q, ok := m.feIndex[name]
	return q, ok
}

// CompressionSummary reports the model's compression operating point:
// the largest projection rank across front-ends (0 when unprojected)
// and the precision, "int8" when any front-end scores through the int8
// kernel and "float64" otherwise.
func (m *Model) CompressionSummary() (rank int, precision string) {
	rank, quantized := compression(m.Bundle)
	if quantized {
		return rank, "int8"
	}
	return rank, "float64"
}

// compression reports a battery's largest projection rank and whether
// any front-end scores through the int8 kernel.
func compression(b *persist.Bundle) (rank int, quantized bool) {
	for q := range b.FrontEnds {
		fe := &b.FrontEnds[q]
		if fe.Proj != nil && fe.Proj.Rank > rank {
			rank = fe.Proj.Rank
		}
		quantized = quantized || fe.Quant != nil
	}
	return rank, quantized
}

// ClusterGeneration is the fleet generation the bundle was distributed
// under (see internal/cluster), zero for standalone bundles. It rides on
// the model pointer, so a request resolved against this model reports the
// generation it actually scored with even across a concurrent hot swap.
func (m *Model) ClusterGeneration() int64 {
	if m.Manifest == nil {
		return 0
	}
	return m.Manifest.ClusterGeneration
}

// Registry owns the current model of a scoring process. Reload and Swap
// are serialized; Current is a single atomic load on the hot path.
type Registry struct {
	dir     string
	routing bool // Server.NewRoutingRegistry
	// hold is the serving process's rule for what a loaded bundle must
	// carry and what of it stays (Server.holdRule); nil keeps the whole
	// bundle.
	hold func(*persist.Bundle) error

	mu  sync.Mutex // serializes Reload and Swap
	gen int64
	cur atomic.Pointer[Model]
}

// NewRegistry returns a registry that loads whole bundles from dir. No
// model is loaded yet; call Reload.
func NewRegistry(dir string) *Registry {
	return &Registry{dir: dir}
}

// NewRoutingRegistry returns the registry of a process that routes
// requests and fuses score rows but scores no front-end itself (the fleet
// coordinator), loading from s's ModelDir under s's hold rule. Each load
// keeps the verified bundle file open as the model's Image, so those
// bytes can be sent on, and drops every front-end's scoring weights. The
// caller closes a model's Image once nothing uses it.
func (s *Server) NewRoutingRegistry() *Registry {
	return &Registry{dir: s.cfg.ModelDir, routing: true, hold: s.holdRule(true)}
}

// holdRule is what each bundle this server's process loads must carry
// and what of it stays (DESIGN.md, "What each role holds"). It runs after
// the load's own checks pass, on every reload. A cascade-enabled server
// refuses a cascade model that lacks a tier the margin policy names, so
// the previous model keeps serving. The cascade model stays only where it
// is read: by a server that runs the cascade, or by one that promotes
// adapted bundles (each candidate carries the serving cascade). A router
// drops every front-end's scoring weights as well; its bundle then no
// longer passes Validate and must not be scored.
func (s *Server) holdRule(routing bool) func(*persist.Bundle) error {
	cascadeOn := s.cfg.Cascade.Enabled
	keepCascade := cascadeOn || (!routing && adaptOn(s.cfg.Adapt))
	pol := s.cascadePolicy
	return func(b *persist.Bundle) error {
		if cascadeOn && b.Cascade != nil {
			if err := pol.ValidateFor(b.Cascade); err != nil {
				return fmt.Errorf("cascade margin: %w", err)
			}
		}
		if !keepCascade {
			b.Cascade = nil
		}
		if routing {
			for i := range b.FrontEnds {
				fe := &b.FrontEnds[i]
				fe.TFLLR, fe.OVR, fe.Proj, fe.Quant = nil, nil, nil, nil
			}
		}
		return nil
	}
}

// Current returns the active model, or nil before the first successful
// load.
func (r *Registry) Current() *Model { return r.cur.Load() }

// Reload resolves the bundle root (honoring its commit records when
// internal/adapt has promoted a generation; plain roots load exactly as
// before) and atomically swaps the result in. On error the previous model
// stays active — a failed reload must never take a serving process down
// or degrade it.
func (r *Registry) Reload() (*Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b *persist.Bundle
	var m *persist.Manifest
	var info persist.ResolveInfo
	var img *persist.Image
	// Chaos hook: an injected fault behaves exactly like a failed bundle
	// load (exercises the retry/backoff and circuit-breaker path).
	err := faultinject.At("serve.reload")
	var took time.Duration
	if err == nil {
		t0 := time.Now()
		b, m, info, img, err = persist.ResolveBundleImage(r.dir)
		took = time.Since(t0)
	}
	if err == nil && r.hold != nil {
		if err = r.hold(b); err != nil {
			img.Close()
		}
	}
	if err != nil {
		obs.Inc("serve.model.reload_errors")
		return nil, err
	}
	verifyWait := img.VerifyWait()
	if !r.routing {
		img.Close()
		img = nil
	}
	if info.Fallback {
		// The newest committed generation was unusable (torn record, disk
		// rot) — an older generation or the base bundle is serving instead.
		obs.Inc("serve.model.gen_fallback")
	}
	obs.Observe("serve.model.load_seconds", took.Seconds())
	obs.Observe("serve.model.verify_wait_seconds", verifyWait.Seconds())
	return r.swap(b, m, img, info, took), nil
}

// Swap atomically installs a bundle the caller has already published into
// the registry's directory, a plain bundle root without commit records,
// and decoded: b and m must be what persist.LoadBundle(Dir()) returns now.
// A cluster worker swaps in the shard it just wrote to its spool, so the
// bundle is decoded once, not read back.
func (r *Registry) Swap(b *persist.Bundle, m *persist.Manifest) *Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.swap(b, m, nil, persist.ResolveInfo{DirName: persist.BaseGenDir}, 0)
}

// swap is the one step every model install ends in; r.mu is held.
func (r *Registry) swap(b *persist.Bundle, m *persist.Manifest, img *persist.Image, info persist.ResolveInfo, took time.Duration) *Model {
	r.gen++
	mod := newModel(b, m, r.gen, info)
	mod.LoadTime, mod.Image = took, img
	r.cur.Store(mod)
	obs.Inc("serve.model.reloads")
	obs.SetGauge("serve.model.version", float64(mod.Version))
	obs.SetGauge("serve.model.front_ends", float64(len(b.FrontEnds)))
	obs.SetGauge("serve.model.generation", float64(info.Generation))
	setFootprintGauges(filepath.Join(r.dir, info.DirName), b)
	return mod
}

// setFootprintGauges publishes the live generation's serving footprint:
// sealed bundle size on disk, resident scoring-weight bytes across all
// front-ends (under the historical serve.model.packed_bytes name), and
// the compression operating point (projection rank, precision as bits:
// 8 when any front-end scores int8, else 64). lrestat's model panel
// reads these from /metricsz.
func setFootprintGauges(dir string, b *persist.Bundle) {
	if st, err := os.Stat(filepath.Join(dir, persist.BundleName)); err == nil {
		obs.SetGauge("serve.model.bundle_bytes", float64(st.Size()))
	}
	var packed int
	for q := range b.FrontEnds {
		packed += b.FrontEnds[q].PackedBytes()
	}
	rank, quantized := compression(b)
	bits := 64
	if quantized {
		bits = 8
	}
	obs.SetGauge("serve.model.packed_bytes", float64(packed))
	obs.SetGauge("serve.model.rank", float64(rank))
	obs.SetGauge("serve.model.precision_bits", float64(bits))
}
