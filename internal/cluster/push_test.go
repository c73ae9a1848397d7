package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
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
	return serveBody(h, contentType, manifest, bytes.NewReader(body), int64(len(body)))
}

// serveBody is servePush with any body reader and a declared
// Content-Length, which need not match the body.
func serveBody(h http.Handler, contentType, manifest string, body io.Reader, declared int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/-/bundle", body)
	req.ContentLength = declared
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

// failingCase is one damaged or mismatched bundle image, as a file under
// LoadBundle and as a push body.
type failingCase struct {
	name     string
	manifest string // the push's header, and manifest.json for LoadBundle
	body     []byte
	extra    int64 // declared Content-Length minus len(body); push only when nonzero
	readErr  bool  // the read fails after 100 bytes: an injected persist.load.read fault, or a body cut off mid-stream
	msg      string
}

// failingCases builds every way a bundle image can fail to load, each
// naming what the error must say.
func failingCases(t testing.TB, f *fleet) []failingCase {
	mf, sealed := validPush(t, f, 0, 2)
	flip := func(at int) []byte {
		b := append([]byte(nil), sealed...)
		b[at] ^= 0x01
		return b
	}
	const footerSize = 52 // CRC32, SHA-256, payload length, magic
	garbage, err := persist.MarshalSealed("not a bundle")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(garbage)
	garbageMF := editManifest(t, mf, func(m *persist.Manifest) { m.BundleSHA256 = hex.EncodeToString(sum[:]) })
	otherSHA := editManifest(t, mf, func(m *persist.Manifest) { m.BundleSHA256 = strings.Repeat("0", 64) })
	return []failingCase{
		{name: "payload byte flipped", manifest: mf, body: flip(len(sealed) / 2), msg: "CRC32 mismatch"},
		{name: "footer byte flipped", manifest: mf, body: flip(len(sealed) - footerSize + 10), msg: "SHA-256 mismatch"},
		{name: "torn tail", manifest: mf, body: sealed[:len(sealed)-1], msg: "torn tail"},
		{name: "shorter than the footer", manifest: mf, body: sealed[:footerSize-1], msg: "torn tail"},
		{name: "re-sealed garbage payload", manifest: garbageMF, body: garbage, msg: "persist: body:"},
		{name: "pinned SHA-256 mismatch", manifest: otherSHA, body: sealed, msg: "does not match the manifest's SHA-256"},
		{name: "body shorter than declared", manifest: mf, body: sealed[:len(sealed)-10], extra: 10, msg: "torn tail"},
		{name: "body longer than declared", manifest: mf, body: append(append([]byte(nil), sealed...), "junk"...), extra: -4, msg: "torn tail"},
		{name: "short read", manifest: mf, body: sealed, readErr: true, msg: "torn"},
	}
}

// loadCase writes c into a fresh bundle directory and loads it; a
// readErr case loads under a one-shot persist.load.read fault.
func loadCase(t *testing.T, c failingCase) (*persist.Bundle, *persist.Manifest, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, persist.ManifestName), []byte(c.manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bundle.gob"), c.body, 0o644); err != nil {
		t.Fatal(err)
	}
	if c.readErr {
		plan, err := faultinject.ParsePlan("seed=1; persist.load.read:error:bytes=100,every=1,count=1,err=torn")
		if err != nil {
			t.Fatal(err)
		}
		defer faultinject.Enable(plan)()
	}
	return persist.LoadBundle(dir)
}

// pushCase pushes c to h; a readErr body fails after 100 bytes.
func pushCase(h http.Handler, c failingCase) *httptest.ResponseRecorder {
	var body io.Reader = bytes.NewReader(c.body)
	if c.readErr {
		body = io.MultiReader(bytes.NewReader(c.body[:100]), iotest.ErrReader(errors.New("torn")))
	}
	return serveBody(h, bundleContentType, c.manifest, body, int64(len(c.body))+c.extra)
}

// TestLoadBundleAndPushRankTheirErrors: a damaged or mismatched image fails
// LoadBundle and a worker push alike, with the error its first failed
// check names — a failed read, then the footer, then the pinned SHA-256,
// then the decode — whatever the overlapped decode did. No bundle comes
// back, a refused push leaves the spool and the served generation as
// they were, and the loads leave no goroutine behind.
func TestLoadBundleAndPushRankTheirErrors(t *testing.T) {
	f := newFleet(t, 1, nil)
	mustDistribute(t, f)
	h := f.workers[0].Handler()
	cases := failingCases(t, f)
	before, model := readSpool(t, f, 0), f.workers[0].Server().Registry().Current()
	for _, c := range cases {
		if c.extra == 0 {
			b, m, err := loadCase(t, c)
			var rerr *persist.ReadError
			if c.readErr != errors.As(err, &rerr) || c.readErr == errors.Is(err, persist.ErrCorrupt) {
				t.Errorf("%s: LoadBundle error %v: read error %v, ErrCorrupt %v; want read error %v", c.name, err, rerr != nil, errors.Is(err, persist.ErrCorrupt), c.readErr)
			}
			if err == nil || !strings.Contains(err.Error(), c.msg) || b != nil || m != nil {
				t.Errorf("%s: LoadBundle returned bundle %v, manifest %v, error %v; want none and an error naming %q", c.name, b != nil, m != nil, err, c.msg)
			}
		}
		prefix := "bundle does not unseal into a valid shard: "
		if c.readErr {
			prefix = "bad bundle push body: "
		}
		rec := pushCase(h, c)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), prefix) || !strings.Contains(rec.Body.String(), c.msg) {
			t.Errorf("%s: push answered %d %s, want 400 %q naming %q", c.name, rec.Code, rec.Body.String(), prefix, c.msg)
		}
		if after := readSpool(t, f, 0); after != before || f.workers[0].Server().Registry().Current() != model {
			t.Errorf("%s: refused push changed the spool or the served model (generation %d)", c.name, after.gen)
		}
	}

	baseline := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		c := cases[i%len(cases)]
		if i%2 == 0 && c.extra == 0 {
			if _, _, err := loadCase(t, c); err == nil {
				t.Fatalf("%s: load succeeded", c.name)
			}
		} else if rec := pushCase(h, c); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: push answered %d", c.name, rec.Code)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after 100 failed loads, %d before", n, baseline)
	}
}

// TestStalledPushPinsNoMemory: a push that declares 200 MiB, sends 1 KiB
// and closes its side of the connection gets a 400, and the worker
// allocates far less than the declared length meanwhile — the buffer is
// sized from a declared length only up to a 16 MiB bound, and past it
// grows only as bytes arrive.
func TestStalledPushPinsNoMemory(t *testing.T) {
	f := newFleet(t, 1, nil)
	mustDistribute(t, f)
	mf, sealed := validPush(t, f, 0, 2)
	srv := httptest.NewServer(f.workers[0].Handler())
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc
	head := fmt.Sprintf("POST /-/bundle HTTP/1.1\r\nHost: worker\r\nContent-Type: %s\r\n%s: %s\r\nContent-Length: %d\r\n\r\n",
		bundleContentType, ManifestHeader, mf, 200<<20)
	if _, err := io.WriteString(conn, head); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(sealed[:1<<10]); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&ms)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bad bundle push body") {
		t.Fatalf("stalled push answered %d %s, want 400 naming the body", resp.StatusCode, body)
	}
	if grew := ms.TotalAlloc - allocated; grew >= 16<<20 {
		t.Fatalf("a push that sent 1 KiB allocated %d bytes", grew)
	}
}
