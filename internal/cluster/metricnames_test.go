package cluster

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/testbundle"
)

var updateNames = flag.Bool("update", false, "rewrite testdata/metric_names.json from this tree")

const metricNamesFile = "testdata/metric_names.json"

// retiredKey names the list of retired metric names in metricNamesFile.
const retiredKey = "retired"

// TestMetricNameContract pins the metric names each serving role exports
// on /metricsz: the names lrestat and the bench/ harness read. Each role
// runs a fixed request sequence from a reset registry, and every name
// that sequence moves must still be exported. "<role>" lists every moved
// name; "<role>.windows" lists, on their own, the names that report
// rolling windows, which lrestat's live panels read. The committed
// lists were recorded before the coordinator moved onto serve.Server's
// request path and before the windows moved into the metrics they
// shadow; the tree must export a superset of each. "retired" lists the
// names removed on purpose, which no role may export. Regenerate the
// role lists with `go test ./internal/cluster -run TestMetricNameContract
// -update`; it keeps "retired" as it is.
func TestMetricNameContract(t *testing.T) {
	got := make(map[string][]string)
	for role, names := range map[string]func(*testing.T) ([]string, []string){
		"standalone":  standaloneMetricNames,
		"worker":      workerMetricNames,
		"coordinator": coordinatorMetricNames,
	} {
		got[role], got[role+".windows"] = names(t)
	}
	data, err := os.ReadFile(metricNamesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if *updateNames {
		got[retiredKey] = want[retiredKey]
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(metricNamesFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricNamesFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	retired := make(map[string]bool)
	for _, n := range want[retiredKey] {
		retired[n] = true
	}
	for role, names := range got {
		for _, n := range names {
			if retired[n] {
				t.Errorf("%s exports the retired name %s", role, n)
			}
		}
	}
	for role, names := range want {
		if role == retiredKey {
			continue
		}
		have := make(map[string]bool, len(got[role]))
		for _, n := range got[role] {
			have[n] = true
		}
		for _, n := range names {
			if !have[n] {
				t.Errorf("%s no longer exports %s", role, n)
			}
		}
	}
}

// standaloneMetricNames drives a cascade-enabled standalone server: a
// tier-1 exit, an escalation, a batch with a bad utterance, a degraded
// request, a malformed body and a reload.
func standaloneMetricNames(t *testing.T) ([]string, []string) {
	dir := t.TempDir()
	b := testbundle.WriteCascade(t, dir, 1)
	s, err := serve.New(serve.Config{
		ModelDir: dir,
		Cascade:  serve.CascadeConfig{Enabled: true, Margin: "+inf"},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	obs.Reset()
	exit := latticeRequestFor(b, "exit", testbundle.CascSeq(rng.New(3), 1, 40, 0.8))
	heavy := scoreRequestFor(b, testbundle.Vector(7))
	bad := serve.ScoreRequest{ID: "bad", FrontEnds: map[string]serve.FrontEndInput{"nope": heavy.FrontEnds["FE0"]}}
	postJSON(t, h, "/v1/score", exit)
	postJSON(t, h, "/v1/score", heavy)
	postJSON(t, h, "/v1/score/batch", serve.BatchRequest{Utterances: []serve.ScoreRequest{exit, heavy, bad}})
	disable := faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "serve.score.fe.FE1", Kind: faultinject.KindError, Every: 1, Err: "injected outage"},
	}})
	postJSON(t, h, "/v1/score", heavy)
	disable()
	serveRaw(h, http.MethodPost, "/v1/score", "{not json", nil)
	postJSON(t, h, "/-/reload", struct{}{})
	serveRaw(h, http.MethodGet, "/readyz", "", nil)
	serveRaw(h, http.MethodGet, "/tracez", "", nil)
	return movedMetricNames(t, h, nil)
}

// workerMetricNames drives one shard worker directly: a score, a batch,
// a request routed for another generation, a reload and introspection.
func workerMetricNames(t *testing.T) ([]string, []string) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	h := f.workers[0].Handler()
	obs.Reset()
	full := scoreRequestFor(f.bundle, testbundle.Vector(11))
	sub := serve.ScoreRequest{ID: "w", FrontEnds: map[string]serve.FrontEndInput{"FE0": full.FrontEnds["FE0"]}}
	postJSON(t, h, "/v1/score", sub)
	postJSON(t, h, "/v1/score/batch", serve.BatchRequest{Utterances: []serve.ScoreRequest{sub, sub}})
	data, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	serveRaw(h, http.MethodPost, "/v1/score", string(data), http.Header{GenerationHeader: {"99"}})
	postJSON(t, h, "/-/reload", struct{}{})
	serveRaw(h, http.MethodGet, "/clusterz", "", nil)
	serveRaw(h, http.MethodGet, "/readyz", "", nil)
	return movedMetricNames(t, h, f.hosts)
}

// coordinatorMetricNames drives a cascade-enabled coordinator over two
// in-process workers: a tier-1 exit, a clean scatter, a batch, a
// degraded request, an all-shards-lost request, a redistributing reload
// and introspection. The workers share the process, so their names are
// part of the list too.
func coordinatorMetricNames(t *testing.T) ([]string, []string) {
	f := newFleetBundle(t, 2, testbundle.WriteCascade, func(cfg *CoordinatorConfig) {
		cfg.Serve.Cascade = serve.CascadeConfig{Enabled: true, Margin: "+inf"}
	})
	mustDistribute(t, f)
	h := f.coord.Handler()
	obs.Reset()
	exit := latticeRequestFor(f.bundle, "exit", testbundle.CascSeq(rng.New(3), 1, 40, 0.8))
	heavy := scoreRequestFor(f.bundle, testbundle.Vector(13))
	postJSON(t, h, "/v1/score", exit)
	postJSON(t, h, "/v1/score", heavy)
	postJSON(t, h, "/v1/score/batch", serve.BatchRequest{Utterances: []serve.ScoreRequest{exit, heavy}})
	f.net.setDown(f.hosts[1], true)
	postJSON(t, h, "/v1/score", heavy)
	f.net.setDown(f.hosts[0], true)
	postJSON(t, h, "/v1/score", heavy)
	f.net.setDown(f.hosts[0], false)
	f.net.setDown(f.hosts[1], false)
	postJSON(t, h, "/-/reload", struct{}{})
	serveRaw(h, http.MethodGet, "/readyz", "", nil)
	serveRaw(h, http.MethodGet, "/clusterz", "", nil)
	serveRaw(h, http.MethodGet, "/tracez", "", nil)
	return movedMetricNames(t, h, f.hosts)
}

func serveRaw(h http.Handler, method, path, body string, hdr http.Header) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	h.ServeHTTP(httptest.NewRecorder(), req)
}

// movedMetricNames reads /metricsz and returns, sorted, every metric the
// request sequence moved since the last obs.Reset — non-zero counters and
// gauges, and histograms and windows holding observations — and, on
// their own, the windows among them. Peer addresses inside names
// collapse to "<peer>" so the lists do not depend on test order.
func movedMetricNames(t *testing.T, h http.Handler, hosts []string) (names, windows []string) {
	t.Helper()
	var rep obs.Report
	getJSON(t, h, "/metricsz", &rep)
	seen := make(map[string]bool)
	seenWin := make(map[string]bool)
	add := func(set map[string]bool, name string) {
		for _, host := range hosts {
			name = strings.ReplaceAll(name, host, "<peer>")
		}
		set[name] = true
	}
	for n, v := range rep.Counters {
		if v != 0 {
			add(seen, n)
		}
	}
	for n, v := range rep.Gauges {
		if v != 0 {
			add(seen, n)
		}
	}
	for n, hd := range rep.Histograms {
		if hd.Count > 0 {
			add(seen, n)
		}
	}
	for n, w := range rep.Windows {
		if w.M5.Count > 0 {
			add(seen, n)
			add(seenWin, n)
		}
	}
	return sortedNames(seen), sortedNames(seenWin)
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
