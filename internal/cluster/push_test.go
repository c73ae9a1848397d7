package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
)

// The bundle-push suite: the binary POST /-/bundle wire (sealed body,
// manifest header), the worker's refusals of malformed pushes, and the
// concurrent fan-out of Distribute and repair.

// spoolState is what a push may change on a worker: its spool files and
// the generation it serves.
type spoolState struct {
	bundle, manifest string
	gen              int64
}

func readSpool(t testing.TB, f *fleet, i int) spoolState {
	t.Helper()
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join(f.spools[i], name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	st := spoolState{bundle: read("bundle.gob"), manifest: read(persist.ManifestName)}
	if m := f.workers[i].Server().Registry().Current(); m != nil {
		st.gen = m.ClusterGeneration()
	}
	return st
}

// validPush is the push Distribute would send worker i for generation gen
// of the coordinator's current bundle: its JSON manifest and sealed body.
func validPush(t testing.TB, f *fleet, i int, gen int64) (string, []byte) {
	t.Helper()
	shards, err := f.coord.splitShards(f.coord.reg.Current(), gen)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := json.Marshal(&shards[i].manifest)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := persist.MarshalSealed(shards[i].sub)
	if err != nil {
		t.Fatal(err)
	}
	return string(mf), sealed
}

func servePush(h http.Handler, contentType, manifest string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/-/bundle", bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if manifest != "" {
		req.Header.Set(ManifestHeader, manifest)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestBundlePushRejectsMalformed: a push that is not a sealed
// octet-stream body with a bounded manifest header is refused with a
// clear 4xx before it touches the spool, and the previous generation
// keeps serving.
func TestBundlePushRejectsMalformed(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	mf, sealed := validPush(t, f, 0, 2)
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)/2] ^= 0x01
	var m persist.Manifest
	if err := json.Unmarshal([]byte(mf), &m); err != nil {
		t.Fatal(err)
	}
	m.Scale = strings.Repeat("x", maxManifestHeader)
	huge, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	oldJSON := []byte(`{"manifest":` + mf + `}`)

	cases := []struct {
		name, contentType, manifest string
		body                        []byte
		status                      int
		msg                         string
	}{
		{"old JSON push", "application/json", "", oldJSON, http.StatusUnsupportedMediaType, bundleContentType},
		{"no content type", "", mf, sealed, http.StatusUnsupportedMediaType, bundleContentType},
		{"missing manifest header", bundleContentType, "", sealed, http.StatusBadRequest, ManifestHeader},
		{"oversized manifest header", bundleContentType, string(huge), sealed, http.StatusBadRequest, ManifestHeader},
		{"manifest header not JSON", bundleContentType, "{not json", sealed, http.StatusBadRequest, ManifestHeader},
		{"one byte flipped", bundleContentType, mf, flipped, http.StatusBadRequest, "does not unseal"},
		{"truncated body", bundleContentType, mf, sealed[:len(sealed)-1], http.StatusBadRequest, "does not unseal"},
	}
	before := readSpool(t, f, 0)
	if before.gen != 1 {
		t.Fatalf("worker 0 serves generation %d before the pushes, want 1", before.gen)
	}
	for _, tc := range cases {
		rec := servePush(f.workers[0].Handler(), tc.contentType, tc.manifest, tc.body)
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.msg) {
			t.Errorf("%s: status %d %s, want %d naming %q", tc.name, rec.Code, rec.Body.String(), tc.status, tc.msg)
		}
		if after := readSpool(t, f, 0); after != before {
			t.Errorf("%s: refused push changed the spool or the served generation (now %d)", tc.name, after.gen)
		}
	}

	// The same worker installs the well-formed push.
	rec := servePush(f.workers[0].Handler(), bundleContentType+"; charset=binary", mf, sealed)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid push: status %d: %s", rec.Code, rec.Body.String())
	}
	if after := readSpool(t, f, 0); after.gen != 2 || after.manifest == before.manifest {
		t.Fatalf("valid push: worker serves generation %d, spool manifest changed %v", after.gen, after.manifest != before.manifest)
	}
}

// holdNet holds worker 0's bundle push until worker 1's push has
// arrived, so only a concurrent fan-out can complete a distribution.
type holdNet struct {
	next          http.RoundTripper
	first, second string
	once          sync.Once
	arrived       chan struct{}
}

func (n *holdNet) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/-/bundle" {
		switch req.URL.Host {
		case n.second:
			n.once.Do(func() { close(n.arrived) })
		case n.first:
			select {
			case <-n.arrived:
			case <-req.Context().Done():
				return nil, req.Context().Err()
			case <-time.After(10 * time.Second):
				return nil, errors.New("worker 1's push never arrived while worker 0's was held")
			}
		}
	}
	return n.next.RoundTrip(req)
}

func TestDistributePushesConcurrently(t *testing.T) {
	f := newFleet(t, 2, func(cfg *CoordinatorConfig) {
		cfg.Transport = &holdNet{next: cfg.Transport, first: cfg.Peers[0], second: cfg.Peers[1], arrived: make(chan struct{})}
	})
	mustDistribute(t, f)
	if gen := f.coord.Plan(); gen != 1 {
		t.Fatalf("plan at generation %d, want 1", gen)
	}
	if n := obs.GetHistogram("cluster.distribute.seconds").Count(); n != 1 {
		t.Fatalf("cluster.distribute.seconds holds %d observations, want 1", n)
	}
}

// TestParallelDistributeFirstWorkerDown: with worker 0 down a reload's
// distribution fails, naming worker 0, while the concurrent push still
// lands worker 1 on the new generation. The plan stays at the old
// generation, scoring degrades to the shard still on it and never mixes
// generations, and one repair tick restores exact scores.
func TestParallelDistributeFirstWorkerDown(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	raw := testVector(43)
	req := scoreRequestFor(f.bundle, raw)
	want := standaloneResponse(t, f.dir, req)

	writeTestBundle(t, f.coord.cfg.ModelDir, 2)
	f.net.setDown(f.hosts[0], true)
	_, err := f.coord.Reload(context.Background())
	if err == nil || !strings.Contains(err.Error(), f.hosts[0]) {
		t.Fatalf("reload with worker 0 down: error %v, want one naming %s", err, f.hosts[0])
	}
	if gen := f.coord.Plan(); gen != 1 {
		t.Fatalf("plan advanced to %d despite failed distribution", gen)
	}
	if gen := f.workers[1].Server().Registry().Current().ClusterGeneration(); gen != 2 {
		t.Fatalf("worker 1 serves generation %d, want the concurrently pushed 2", gen)
	}
	f.net.setDown(f.hosts[0], false)

	// Worker 1 answers 409 for the generation-1 route; worker 0 still
	// serves generation 1 and its shard is all that survives.
	rec, sr := f.score(t, req)
	if rec.Code != http.StatusOK || !sr.Degraded {
		t.Fatalf("status %d degraded=%v, want a degraded 200: %s", rec.Code, sr.Degraded, rec.Body.String())
	}
	if !reflect.DeepEqual(sr.Surviving, []string{"FE0"}) {
		t.Fatalf("surviving = %v, want [FE0] (the generation-1 shard)", sr.Surviving)
	}
	if sr.ModelVersion != 1 || sr.ClusterGeneration != 1 {
		t.Fatalf("response v%d gen%d, want the pinned v1 gen1", sr.ModelVersion, sr.ClusterGeneration)
	}
	sameRows(t, sr.Scores, map[string][]float64{"FE0": want.Scores["FE0"]})
	present := []bool{true, false}
	for k := range f.bundle.Languages {
		x := []float64{want.Scores["FE0"][k], 0}
		if got, exp := sr.Fused[k], f.bundle.Fusion.ScoreMasked(x, present)[1]; got != exp {
			t.Fatalf("fused[%d] = %v, want ScoreMasked over the generation-1 survivor %v", k, got, exp)
		}
	}

	// One repair tick re-pushes the plan's generation to worker 1 only.
	repushes := obs.GetCounter("cluster.repair.repushes")
	f.coord.repair(context.Background())
	if n := repushes.Value(); n != 1 {
		t.Fatalf("repair re-pushed %d workers, want 1", n)
	}
	rec, sr = f.score(t, req)
	if rec.Code != http.StatusOK || sr.Degraded {
		t.Fatalf("after repair: status %d degraded=%v (%s)", rec.Code, sr.Degraded, rec.Body.String())
	}
	if !reflect.DeepEqual(sr.ScoreResult, want.ScoreResult) {
		t.Fatalf("after repair the fleet differs from generation 1 standalone:\nfleet      %+v\nstandalone %+v", sr.ScoreResult, want.ScoreResult)
	}
}
