package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"slices"
	"testing"

	"repro/internal/cascade"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/testbundle"
)

// writeFullExport saves a fixture export carrying every part a role may
// hold: scoring weights, fusion, a cascade model and an adapt sidecar.
func writeFullExport(t testing.TB, dir string, seed uint64) *persist.Bundle {
	return testbundle.WriteAdapt(t, dir, testbundle.NewCascade(t, seed), seed)
}

// holding is what a live model keeps of the export.
type holding struct {
	frontEnds []string
	weighted  int // front-ends that kept their scoring weights
	fusion    bool
	cascade   bool
}

// holdingOf reads what b holds, and checks that every front-end it kept
// has the export's geometry, which every role reads.
func holdingOf(t *testing.T, b, export *persist.Bundle) holding {
	t.Helper()
	h := holding{fusion: b.Fusion != nil, cascade: b.Cascade != nil}
	for q := range b.FrontEnds {
		fe := &b.FrontEnds[q]
		h.frontEnds = append(h.frontEnds, fe.Name)
		if fe.TFLLR != nil && fe.OVR != nil {
			h.weighted++
		}
		k := slices.IndexFunc(export.FrontEnds, func(x persist.FrontEndModel) bool { return x.Name == fe.Name })
		if k < 0 || fe.NumPhones != export.FrontEnds[k].NumPhones || fe.Order != export.FrontEnds[k].Order {
			t.Fatalf("front-end %q lost the export's geometry", fe.Name)
		}
	}
	if !slices.Equal(b.Languages, export.Languages) {
		t.Fatalf("languages %v, export has %v", b.Languages, export.Languages)
	}
	return h
}

// role is one booted lred role: its live model and its reload.
type role struct {
	current func() *serve.Model
	reload  func() error
	server  *serve.Server // the standalone server, nil for fleet roles
}

func bootStandalone(t *testing.T, dir string, mutate func(*serve.Config)) role {
	cfg := serve.Config{ModelDir: dir}
	mutate(&cfg)
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return role{
		current: s.Registry().Current,
		reload:  func() error { _, err := s.Reload(); return err },
		server:  s,
	}
}

// bootFleet boots a two-worker fleet over its own seed-1 full export (the
// same bundle each case writes) and returns the coordinator or worker 0.
func bootFleet(t *testing.T, mutate func(*CoordinatorConfig), worker bool) role {
	f := newFleetBundle(t, 2, writeFullExport, mutate)
	mustDistribute(t, f)
	if worker {
		srv := f.workers[0].Server()
		return role{
			current: srv.Registry().Current,
			reload:  func() error { _, err := srv.Reload(); return err },
		}
	}
	return role{
		current: f.coord.reg.Current,
		reload:  func() error { _, err := f.coord.Reload(context.Background()); return err },
	}
}

// TestRoleHoldings pins what each lred role's live model holds of the
// export, after boot and after a reload (DESIGN.md, "What each role
// holds"): scoring weights everywhere but on the coordinator, the
// cascade model only where the cascade runs or adapted bundles are
// promoted, and on a worker only its shard. A bare registry still loads
// the whole export, and an -adapt promotion without -cascade carries the
// export's cascade model unchanged.
func TestRoleHoldings(t *testing.T) {
	both := []string{"FE0", "FE1"}
	cascadeOn := serve.CascadeConfig{Enabled: true}
	for _, tc := range []struct {
		name string
		boot func(t *testing.T, dir string) role
		want holding
	}{
		{"standalone", func(t *testing.T, dir string) role {
			return bootStandalone(t, dir, func(*serve.Config) {})
		}, holding{both, 2, true, false}},
		{"standalone -cascade", func(t *testing.T, dir string) role {
			return bootStandalone(t, dir, func(c *serve.Config) { c.Cascade = cascadeOn })
		}, holding{both, 2, true, true}},
		{"standalone -adapt", func(t *testing.T, dir string) role {
			return bootStandalone(t, dir, func(c *serve.Config) { c.Adapt = testbundle.AdaptPolicy })
		}, holding{both, 2, true, true}},
		{"coordinator", func(t *testing.T, _ string) role {
			return bootFleet(t, nil, false)
		}, holding{both, 0, true, false}},
		{"coordinator -cascade", func(t *testing.T, _ string) role {
			return bootFleet(t, func(c *CoordinatorConfig) { c.Serve.Cascade = cascadeOn }, false)
		}, holding{both, 0, true, true}},
		{"worker", func(t *testing.T, _ string) role {
			return bootFleet(t, nil, true)
		}, holding{[]string{"FE0"}, 1, false, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			export := writeFullExport(t, dir, 1)
			r := tc.boot(t, dir)
			for _, step := range []string{"boot", "reload"} {
				if step == "reload" {
					if err := r.reload(); err != nil {
						t.Fatal(err)
					}
				}
				m := r.current()
				if got := holdingOf(t, m.Bundle, export); !equalHolding(got, tc.want) {
					t.Fatalf("after %s (model v%d) the live model holds %+v, want %+v", step, m.Version, got, tc.want)
				}
			}
			if r.server == nil || r.server.Adapter() == nil {
				return
			}
			testbundle.FeedAdapter(r.server.Adapter(), r.current().Bundle, 12)
			if res := r.server.Adapter().TryPromote(true); !res.Promoted {
				t.Fatalf("promotion: %+v", res)
			}
			promoted, err := serve.NewRegistry(dir).Reload()
			if err != nil {
				t.Fatal(err)
			}
			if promoted.Gen.Generation != 1 {
				t.Fatalf("the model dir resolves to generation %d after a promotion, want 1", promoted.Gen.Generation)
			}
			if !bytes.Equal(cascadeGob(t, promoted.Bundle.Cascade), cascadeGob(t, export.Cascade)) {
				t.Fatal("the promoted bundle's cascade model differs from the export's")
			}
		})
	}

	dir := t.TempDir()
	export := writeFullExport(t, dir, 1)
	m, err := serve.NewRegistry(dir).Reload()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := holdingOf(t, m.Bundle, export), (holding{both, 2, true, true}); !equalHolding(got, want) {
		t.Fatalf("a bare registry holds %+v, want the whole export %+v", got, want)
	}
}

func equalHolding(a, b holding) bool {
	return slices.Equal(a.frontEnds, b.frontEnds) && a.weighted == b.weighted && a.fusion == b.fusion && a.cascade == b.cascade
}

// cascadeGob is m's gob encoding, the bytes a bundle file carries.
func cascadeGob(t *testing.T, m *cascade.Model) []byte {
	t.Helper()
	if m == nil {
		t.Fatal("no cascade model")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
