package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fusion"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/testbundle"
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
// of the coordinator's current bundle: its JSON shard manifest and the
// exported image, read from the file the coordinator verified.
func validPush(t testing.TB, f *fleet, i int, gen int64) (string, []byte) {
	t.Helper()
	pl := f.coord.newPlan(f.coord.reg.Current())
	pl.gen = gen
	mf, err := json.Marshal(pl.manifest(i))
	if err != nil {
		t.Fatal(err)
	}
	image, err := io.ReadAll(pl.model.Image.Reader())
	if err != nil {
		t.Fatal(err)
	}
	return string(mf), image
}

// editManifest returns the JSON manifest mf after edit.
func editManifest(t testing.TB, mf string, edit func(*persist.Manifest)) string {
	t.Helper()
	var m persist.Manifest
	if err := json.Unmarshal([]byte(mf), &m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	out, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// assigning sets a manifest's assignment, with no recorded geometry.
func assigning(fes ...string) func(*persist.Manifest) {
	return func(m *persist.Manifest) { m.FrontEnds, m.FrontEndDims = fes, nil }
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
	huge := editManifest(t, mf, func(m *persist.Manifest) { m.Scale = strings.Repeat("x", maxManifestHeader) })
	oldJSON := []byte(`{"manifest":` + mf + `}`)
	otherSHA := editManifest(t, mf, func(m *persist.Manifest) { m.BundleSHA256 = strings.Repeat("0", 64) })
	unpinned := editManifest(t, mf, func(m *persist.Manifest) { m.BundleSHA256 = "" })
	noGeneration := editManifest(t, mf, func(m *persist.Manifest) { m.ClusterGeneration = 0 })
	lacking := editManifest(t, mf, assigning("FE0", "FE9"))
	empty := editManifest(t, mf, assigning())
	duplicated := editManifest(t, mf, assigning("FE0", "FE0"))

	cases := []struct {
		name, contentType, manifest string
		body                        []byte
		status                      int
		msg                         string
	}{
		{"old JSON push", "application/json", "", oldJSON, http.StatusUnsupportedMediaType, bundleContentType},
		{"no content type", "", mf, sealed, http.StatusUnsupportedMediaType, bundleContentType},
		{"missing manifest header", bundleContentType, "", sealed, http.StatusBadRequest, ManifestHeader},
		{"oversized manifest header", bundleContentType, huge, sealed, http.StatusBadRequest, ManifestHeader},
		{"manifest header not JSON", bundleContentType, "{not json", sealed, http.StatusBadRequest, ManifestHeader},
		{"one byte flipped", bundleContentType, mf, flipped, http.StatusBadRequest, "does not unseal"},
		{"truncated body", bundleContentType, mf, sealed[:len(sealed)-1], http.StatusBadRequest, "does not unseal"},
		{"image is not the pinned one", bundleContentType, otherSHA, sealed, http.StatusBadRequest, "SHA-256"},
		{"no pinned SHA-256", bundleContentType, unpinned, sealed, http.StatusBadRequest, "bundle_sha256"},
		{"no cluster generation", bundleContentType, noGeneration, sealed, http.StatusBadRequest, "cluster_generation"},
		{"assignment names a front-end the image lacks", bundleContentType, lacking, sealed, http.StatusBadRequest, "FE9"},
		{"empty assignment", bundleContentType, empty, sealed, http.StatusBadRequest, "assigns no front-ends"},
		{"duplicated assignment", bundleContentType, duplicated, sealed, http.StatusBadRequest, "twice"},
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

// futureBundle is an export as a later build might seal it: one more
// gob-additive field, which this build's decode ignores and a re-encode
// would drop.
type futureBundle struct {
	Languages  []string
	FrontEnds  []persist.FrontEndModel
	Fusion     *fusion.Backend
	Provenance string
}

// TestPushInstallsTheBytesItVerified: a worker installs the pushed image
// itself — the whole export — next to the header manifest, which already
// describes the shard it keeps, and swaps in exactly the model a fresh
// registry resolves from its spool — which a restarted worker resumes.
func TestPushInstallsTheBytesItVerified(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	h, spool := f.workers[0].Handler(), f.spools[0]
	mf, sealed := validPush(t, f, 0, 2)
	if rec := servePush(h, bundleContentType, mf, sealed); rec.Code != http.StatusOK {
		t.Fatalf("push: status %d: %s", rec.Code, rec.Body.String())
	}
	got := readSpool(t, f, 0)
	export, err := os.ReadFile(filepath.Join(f.dir, "bundle.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if got.bundle != string(sealed) || got.bundle != string(export) {
		t.Fatal("spool bundle.gob differs from the pushed body or the export")
	}
	var hdr, onDisk persist.Manifest
	if err := json.Unmarshal([]byte(mf), &hdr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(got.manifest), &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, hdr) {
		t.Fatalf("spool manifest is not the pushed header:\nspool  %+v\nheader %+v", onDisk, hdr)
	}

	cur := f.workers[0].Server().Registry().Current()
	if names := cur.Manifest.FrontEnds; !reflect.DeepEqual(names, []string{"FE0"}) || len(cur.Bundle.FrontEnds) != 1 || cur.Bundle.Fusion != nil {
		t.Fatalf("worker keeps %v (fusion %v), want its assignment [FE0] without fusion", names, cur.Bundle.Fusion != nil)
	}
	fresh, err := serve.NewRegistry(spool).Reload()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cur.Bundle, fresh.Bundle) || !reflect.DeepEqual(cur.Manifest, fresh.Manifest) || cur.Gen != fresh.Gen {
		t.Fatalf("installed model differs from the spool reloaded:\ninstalled %+v %+v\nreloaded  %+v %+v", cur.Manifest, cur.Gen, fresh.Manifest, fresh.Gen)
	}
	restarted, err := NewWorker(serve.Config{ModelDir: spool, BatchWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if m := restarted.Server().Registry().Current(); m == nil || m.ClusterGeneration() != 2 || !reflect.DeepEqual(m.Bundle, cur.Bundle) {
		t.Fatalf("worker restarted on the spool serves %+v, want generation 2's shard", m)
	}

	// A later build's export, with a field this build does not know: the
	// spool keeps it, and the manifest pins the bytes received.
	var export1 persist.Bundle
	if err := persist.UnmarshalSealed(export, &export1); err != nil {
		t.Fatal(err)
	}
	future, err := persist.MarshalSealed(&futureBundle{Languages: export1.Languages, FrontEnds: export1.FrontEnds, Fusion: export1.Fusion, Provenance: "later build"})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(future)
	futureMF := editManifest(t, mf, func(m *persist.Manifest) { m.BundleSHA256 = hex.EncodeToString(sum[:]) })
	if rec := servePush(h, bundleContentType, futureMF, future); rec.Code != http.StatusOK {
		t.Fatalf("later-build push: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := readSpool(t, f, 0); got.bundle != string(future) {
		t.Fatal("later-build push: spool bundle.gob is not the pushed body")
	}
	if _, _, err := persist.LoadBundle(spool); err != nil {
		t.Fatalf("later-build push: spool does not load: %v", err)
	}

	// A header manifest recording another front-end's geometry is refused
	// before the spool is touched.
	before := readSpool(t, f, 0)
	other := editManifest(t, mf, func(m *persist.Manifest) { m.FrontEndDims[0].Name = "FE1" })
	rec := servePush(h, bundleContentType, other, sealed)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "manifest front-end") {
		t.Fatalf("mismatched manifest: status %d %s, want 400 naming the manifest front-end", rec.Code, rec.Body.String())
	}
	if after := readSpool(t, f, 0); after != before {
		t.Fatalf("mismatched manifest changed the spool or the served generation (now %d)", after.gen)
	}
}

// TestPushSpoolWriteFaultKeepsPreviousBundle: a persist.save fault while
// a push installs answers 500. The previous generation keeps serving the
// same scores, the spool keeps its bytes, no temp file is left, and a
// worker that had nothing installed stays unready.
func TestPushSpoolWriteFaultKeepsPreviousBundle(t *testing.T) {
	f := newFleet(t, 1, nil)
	mustDistribute(t, f)
	w := f.workers[0]
	emptySpool := t.TempDir()
	empty, err := NewWorker(serve.Config{ModelDir: emptySpool, BatchWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	req := scoreRequestFor(f.bundle, testbundle.Vector(31))
	scoreWorker := func() serve.ScoreResponse {
		t.Helper()
		rec, body := postJSON(t, w.Handler(), "/v1/score", req)
		var sr serve.ScoreResponse
		if rec.Code != http.StatusOK || json.Unmarshal(body, &sr) != nil {
			t.Fatalf("worker score: status %d: %s", rec.Code, body)
		}
		return sr
	}
	wantScore := scoreWorker()
	before, model := readSpool(t, f, 0), w.Server().Registry().Current()
	mf, sealed := validPush(t, f, 0, 2)

	disable := faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "persist.save", Kind: faultinject.KindError, Every: 1, Err: "disk full"},
	}})
	for _, target := range []*Worker{w, empty} {
		rec := servePush(target.Handler(), bundleContentType, mf, sealed)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "disk full") {
			t.Errorf("push under a persist.save fault: status %d %s, want 500 naming the fault", rec.Code, rec.Body.String())
		}
	}
	fires := faultinject.Snapshot()["persist.save"].Fires
	disable()
	if fires != 2 {
		t.Fatalf("persist.save fired %d times, want once per push", fires)
	}

	if after := readSpool(t, f, 0); after != before {
		t.Fatalf("failed install changed the spool or the served generation (now %d)", after.gen)
	}
	if w.Server().Registry().Current() != model {
		t.Fatal("failed install swapped the served model")
	}
	if got := scoreWorker(); !reflect.DeepEqual(got.ScoreResult, wantScore.ScoreResult) || got.ModelVersion != wantScore.ModelVersion || got.ClusterGeneration != 1 {
		t.Fatalf("after the failed install the worker answers %+v, want %+v", got, wantScore)
	}
	for _, dir := range []string{f.spools[0], emptySpool} {
		if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
			t.Errorf("failed install left %v behind", tmp)
		}
	}
	if ents, err := os.ReadDir(emptySpool); err != nil || len(ents) != 0 {
		t.Fatalf("empty spool after a failed install holds %v (%v)", ents, err)
	}
	rec := httptest.NewRecorder()
	empty.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty worker /readyz after a failed install: %d, want 503", rec.Code)
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
	raw := testbundle.Vector(43)
	req := scoreRequestFor(f.bundle, raw)
	want := standaloneResponse(t, f.dir, req)

	testbundle.Write(t, f.coord.cfg.Serve.ModelDir, 2)
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
	survivor := map[string][]float64{"FE0": want.Scores["FE0"]}
	testbundle.SameRows(t, sr.Scores, survivor)
	if mf := testbundle.MaskedFused(f.bundle, survivor); !reflect.DeepEqual(sr.Fused, mf) {
		t.Fatalf("fused = %v, want ScoreMasked over the generation-1 survivor %v", sr.Fused, mf)
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
