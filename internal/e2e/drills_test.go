package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/cascade"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// TestDaemonStaysLean: no binary links test support — timing lives in
// bench/ and the `go test -bench` benchmarks — and the serving binary
// does not link the offline training pipeline either.
func TestDaemonStaysLean(t *testing.T) {
	mains := mainPackages(t)
	if !slices.Contains(mains, "repro/cmd/lred") {
		t.Fatalf("no lred among the main packages %v", mains)
	}
	for _, pkg := range mains {
		paths, err := deps(root, pkg)
		if err != nil {
			t.Fatal(err)
		}
		banned := []string{"testing", "repro/internal/testbundle"}
		if pkg == "repro/cmd/lred" {
			banned = append(banned, "repro/internal/experiments")
		}
		for _, p := range paths {
			if slices.Contains(banned, p) {
				t.Errorf("%s links %s", pkg, p)
			}
		}
	}
}

// TestEveryFunctionIsLinked: every function and method declared in a
// non-test file under internal/ is linked into some binary — a main
// package of the module or bench/'s harness — or is on linkAllow. The
// linker's own reachability (-dumpdep, with -l so inlined functions
// keep their symbols) decides what is linked, so code only tests reach
// is found exactly, not by name matching.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("links every binary")
	}
	linked := map[string]bool{}
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{{root, mainPackages(t)}, {filepath.Join(root, "bench"), []string{"."}}} {
		// deps opens every source file the binaries build from, so an edit
		// anywhere re-runs the test instead of reusing a cached pass.
		if _, err := deps(b.dir, b.pkgs...); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"build", "-o", t.TempDir() + string(filepath.Separator),
			"-gcflags=repro/...=-l", "-ldflags=-dumpdep"}, b.pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = b.dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go build in %s: %v\n%s", b.dir, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if _, to, ok := strings.Cut(line, " -> "); ok && strings.HasPrefix(to, "repro/internal/") {
				linked[symbolKey(to)] = true
			}
		}
	}
	if len(linked) == 0 {
		t.Fatal("the linker reported no repro/internal symbols")
	}

	declared := map[string]bool{} // keys of declared functions and packages
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(filepath.Join(root, "internal"), filepath.Dir(path))
		pkg := filepath.ToSlash(dir)
		declared[pkg] = true
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := pkg + "." + funcName(fn)
			declared[key] = true
			if fn.Name.Name == "init" {
				continue // run by pkg.init whenever the package is linked
			}
			if !linked["repro/internal/"+key] && linkAllow[key] == "" && linkAllow[pkg] == "" {
				t.Errorf("%s: %s is linked by no binary", fset.Position(fn.Pos()), key)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range linkAllow {
		switch {
		case !declared[key]:
			t.Errorf("linkAllow names %s, which is not declared", key)
		case linked["repro/internal/"+key]:
			t.Errorf("linkAllow names %s, which is linked now", key)
		case !strings.Contains(key, "."):
			for sym := range linked {
				if strings.HasPrefix(sym, "repro/internal/"+key+".") {
					t.Errorf("linkAllow names package %s, whose %s is linked now", key, sym)
					break
				}
			}
		}
	}
}

// linkAllow lists, by package-relative name, what no binary links but
// must stay in non-test code, each with the test that needs it. A key
// with no dot is a whole package. Entries that become linked or stop
// existing fail TestEveryFunctionIsLinked, so the list cannot rot.
var linkAllow = map[string]string{
	"testbundle": "test support by design: the bundles the serving packages' tests load",

	// Invariant oracles: tests assert a built or decoded model is well formed.
	"gmm.(*GMM).Validate":            "TestSingleGaussianMLE; persist's TestRoundTripGMMRestoresCaches",
	"lattice.(*Lattice).Validate":    "frontend's TestDecodeProducesValidLattice; TestValidateCatchesDeadEnds",
	"lm.(*Bigram).Validate":          "TestKneserNeyValid; persist's TestRoundTripBigramLM",
	"phones.(*Set).Validate":         "frontend's TestStandardSix; TestValidateCatchesCorruption",
	"sparse.(*Matrix).Validate":      "TestMatrixRowsMatchBoxed",
	"synthlang.(*Language).Validate": "TestGenerateClosedSet; TestValidateCatchesBrokenModel",

	// Referees and fixtures that other packages' tests use.
	"corpus.TinyConfig":                      "frontend's TestDecodeMatchesFrozenReference decodes the corpus it builds",
	"faultinject.Snapshot":                   "serve's TestChaosServeUnderSeededFaults and cluster's TestChaosPlanDrivesShardRPCs check every site fired",
	"lattice.(*Lattice).ExpectedNgramCounts": "ngram's TestSupervectorMatchesMapReference sums its per-order counts",
	"lattice.(*Lattice).ForwardBackward":     "ExpectedNgramCounts runs it; FuzzParseSausage compares the arena lattice's to it",
	"metrics.Cavg":                           "the quadratic referee of TestMinCavgMatchesReferee and FuzzMinCavgMatchesReferee; TestCavgPerfectSystem",
	"metrics.PairwiseEER":                    "experiments' TestFamilyPairsAreHardestConfusions",
	"ngram.(*TFLLR).Dim":                     "persist's TestRoundTripTFLLR; TestTFLLRScaling",
	"ngram.(*TFLLR).Scale":                   "persist's TestRoundTripTFLLR",
	"sparse.FromMap":                         "testbundle and the svm, persist and adapt tests build vectors with it",
	"sparse.(*Vector).At":                    "ngram's TestSupervectorFromString reads supervector entries",
	"sparse.Dot":                             "ngram's TestTFLLRKernelEqualsScaledDot; TestMatrixRowsMatchBoxed",
	"sparse.(*Vector).Scale":                 "svm's TestPropertyScoreIsLinear",
	"svm.(*Quantized).Dequantize":            "TestQuantizedMatchesDequantizedOracle; experiments' TestCompressedOrderPreservationMediumSeed42",
	"svm.(*OneVsRest).Accuracy":              "TestOneVsRest; vsm's TestTrainSubsystemAndScoreMatrix",
	"synthlang.(*Utterance).PhoneIDs":        "lm's tests sample phone strings with it; TestSamplePhoneIDsInRange",
}

// symbolKey reduces a linker symbol to the name its declaration gets from
// funcName: "repro/internal/p.F", "repro/internal/p.T.M" or
// "repro/internal/p.(*T).M", with any bracketed type arguments dropped
// and the flags -dumpdep appends after a space cut off. Auxiliary data
// symbols ("F.stkobj", "F.func1") keep their suffix, so they never match
// a declaration: only the function's own symbol does.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	key, _, _ := strings.Cut(b.String(), " ")
	return key
}

// funcName is fn's symbol name within its package: "F", "T.M" or "(*T).M".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star, ok := typ.(*ast.StarExpr)
	if ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if ok {
		return "(*" + name + ")." + fn.Name.Name
	}
	return name + "." + fn.Name.Name
}

// TestChaosSmoke: under a fault plan and client load the daemon keeps
// answering and degrades instead of failing.
func TestChaosSmoke(t *testing.T) {
	setup(t)
	d := startDaemon(t, "lred", "-models", fx.models,
		"-chaos", "seed=7; serve.score.fe.HU:error:p=0.3; serve.handler:error:p=0.02")
	body := latticeBody("chaos", battery)
	ok := 0
	for i := 0; i < 400; i++ {
		if code, _ := d.post("/v1/score", body); code == http.StatusOK {
			ok++
		}
	}
	// The p=0.02 handler faults plus the rare full-battery loss stay well
	// under a quarter of the traffic.
	if ok < 300 {
		t.Fatalf("only %d of 400 requests answered 200", ok)
	}
	if d.metrics().Counters["serve.score.degraded"] == 0 {
		t.Fatal("no degraded responses recorded")
	}
}

// TestAdaptSmoke drives the online-adaptation loop with the replay
// requests under a seeded adapt.* fault plan. Promotions 1 and 2 fail at
// adapt.train and serving does not move a bit; promotion 3 flips to
// generation 1; promotion 4 passes its gates, swaps in, and is rolled
// back when its post-swap canary probe fails, after which serving is
// bit-identical to generation 1 again.
func TestAdaptSmoke(t *testing.T) {
	setup(t)
	models := copyDir(t, fx.models)
	// Each promotion hits adapt.canary twice (gate, then probe), so the
	// 4th hit is promotion 4's probe.
	d := startDaemon(t, "lred", "-models", models, "-access-log", "none",
		"-adapt", "cadence=1h;probe=1h;votes=1;min-utts=1;buffer=64;shadow-rate=1;shadow-bound=1e6;eer-budget=100;canary-tol=1e6;keep=4",
		"-chaos", "seed=7; adapt.train:error:every=1,count=2; adapt.canary:error:every=1,after=3,count=1")
	requests := strings.Split(strings.TrimSpace(readFile(t, fx.requests)), "\n")
	feed := func() {
		for i, r := range requests {
			if code, out := d.post("/v1/score", []byte(r)); code != http.StatusOK {
				t.Fatalf("replay request %d: status %d: %s", i, code, out)
			}
		}
	}
	snap := func() serve.ScoreResponse { return d.score([]byte(requests[0])) }
	promote := func(want string) adapt.Result {
		code, out := d.post("/-/adapt/promote", nil)
		r := decode[adapt.Result](t, out)
		if code != http.StatusOK || r.Outcome != want {
			t.Fatalf("promote: status %d outcome %q, want %s: %s", code, r.Outcome, want, out)
		}
		return r
	}
	adaptz := func() adapt.Status { return decode[adapt.Status](t, []byte(d.get("/adaptz"))) }

	feed()
	golden0 := snap()
	for n := 1; n <= 2; n++ {
		promote("error:train")
		sameScores(t, fmt.Sprintf("after failed promote %d", n), snap(), golden0)
	}
	if r := promote("promoted"); r.Generation != 1 || adaptz().Generation != 1 {
		t.Fatalf("promote 3 landed on generation %d, want 1", r.Generation)
	}
	golden1 := snap()
	feed()
	promote("rolled-back:probe")
	sameScores(t, "after the rollback", snap(), golden1)
	if st := adaptz(); st.Generation != 1 || st.Rollbacks != 1 {
		t.Fatalf("/adaptz %+v, want generation 1 and 1 rollback", st)
	}
	// The abandoned generation is quarantined on disk, never live.
	for _, dir := range []string{"gen-000001", "quarantine-gen-000002"} {
		if fi, err := os.Stat(filepath.Join(models, dir)); err != nil || !fi.IsDir() {
			t.Fatalf("model dir lacks %s/: %v", dir, err)
		}
	}
}

// TestCrashResumeSmoke: a checkpointed lre run crashed mid-pipeline by a
// fault plan resumes from its checkpoint directory and prints tables
// byte-identical to an uninterrupted run.
func TestCrashResumeSmoke(t *testing.T) {
	setup(t)
	args := []string{"-scale", "tiny", "-seed", "42", "-table", "1,2,4"}
	golden, stderr, err := runLre(args...)
	if err != nil {
		t.Fatalf("golden run: %v\n%s", err, stderr)
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	args = append(args, "-checkpoint-dir", ckpt)
	_, stderr, err = runLre(append(args, "-chaos", "seed=1; checkpoint.save.prepublish:panic:every=1,after=3,count=1")...)
	if m, _ := filepath.Glob(filepath.Join(ckpt, "MANIFEST-*")); err == nil || len(m) == 0 {
		t.Fatalf("the chaos run must crash and leave checkpoints (exit %v, %d records)\n%s", err, len(m), stderr)
	}
	resumed, stderr, err := runLre(append(args, "-resume")...)
	if err != nil || !bytes.Contains(stderr, []byte("resuming from checkpoint generation")) {
		t.Fatalf("resume did not load the checkpoint: %v\n%s", err, stderr)
	}
	if !bytes.Equal(resumed, golden) {
		t.Fatalf("resumed tables differ\ngolden:\n%s\nresumed:\n%s", golden, resumed)
	}
}

// TestCheckpointFlagsNeedDir: -resume and -checkpoint-keep act on a
// -checkpoint-dir; without one, lre exits nonzero before any pipeline is
// built instead of quietly running fresh.
func TestCheckpointFlagsNeedDir(t *testing.T) {
	setup(t)
	for _, flag := range [][]string{{"-resume"}, {"-checkpoint-keep", "2"}} {
		stdout, stderr, err := runLre(append([]string{"-scale", "tiny", "-table", "1"}, flag...)...)
		if err == nil || len(stdout) != 0 || !bytes.Contains(stderr, []byte("-checkpoint-dir")) || bytes.Contains(stderr, []byte("building pipeline")) {
			t.Fatalf("lre %s without -checkpoint-dir: err %v, stdout %q, stderr:\n%s\nwant a nonzero exit naming -checkpoint-dir before the pipeline build", flag[0], err, stdout, stderr)
		}
	}
}

// TestDBAThresholdsExample: the examples/dbathresholds walkthrough (a
// tiny pipeline, then DBA-M2 at every vote threshold) runs to the end and
// prints one row per V from 6 down to 1.
func TestDBAThresholdsExample(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a pipeline")
	}
	const pkg = "./examples/dbathresholds"
	if _, err := deps(root, pkg); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "dbathresholds")
	build := exec.Command("go", "build", "-o", bin, pkg)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("dbathresholds: %v\n%s", err, out)
	}
	rows := regexp.MustCompile(`(?m)^([1-6]) +\d+ +\d+\.\d\d +\d+\.\d\d$`).FindAllSubmatch(out, -1)
	var vs []string
	for _, r := range rows {
		vs = append(vs, string(r[1]))
	}
	if strings.Join(vs, ",") != "6,5,4,3,2,1" {
		t.Fatalf("V rows %v, want 6 down to 1\n%s", vs, out)
	}
}

// TestClusterSmoke: a coordinator and two worker processes answer like a
// standalone daemon over the same bundle, keep answering (degraded, 2xx)
// under a cluster.rpc chaos plan, and keep answering with survivor fusion
// after one worker is killed with SIGKILL.
func TestClusterSmoke(t *testing.T) {
	setup(t)
	body := latticeBody("fleet", battery)
	want := startDaemon(t, "standalone", "-models", fx.models).score(body)
	w0 := startDaemon(t, "worker0", "-role=worker", "-spool", t.TempDir())
	w1 := startDaemon(t, "worker1", "-role=worker", "-spool", t.TempDir())
	// -breaker-trip 1000 isolates injection from breaker effects, as the
	// in-process chaos suite does: at trip 3, three injected errors in a
	// row (about one run in three per peer) opened a peer's breaker for a
	// cooldown longer than the whole loop, and when both opened, every
	// request after lost both shards. The breaker's lifecycle under
	// faults is checked in process against a fake clock
	// (TestBreakerLifecycleUnderWorkerCrash).
	coord := startDaemon(t, "coordinator", "-role=coordinator", "-models", fx.models,
		"-peers", w0.addr+","+w1.addr, "-probe-interval", "500ms", "-breaker-trip", "1000",
		"-chaos", "seed=7; cluster.rpc.*:error:p=0.2")

	// Losing one shard degrades; losing both is an honest 503 (p² ≈ 4%,
	// independently per request).
	clean, degraded, lost := 0, 0, 0
	for i := 0; i < 60; i++ {
		switch code, out := coord.post("/v1/score", body); code {
		case http.StatusOK:
			if sr := decode[serve.ScoreResponse](t, out); sr.Degraded {
				degraded++
			} else {
				sameScores(t, fmt.Sprintf("clean fleet response %d vs standalone", i), sr, want)
				clean++
			}
		case http.StatusServiceUnavailable:
			lost++
		default:
			t.Fatalf("request %d: status %d: %s", i, code, out)
		}
	}
	if clean < 1 || degraded < 1 || lost > 15 {
		t.Fatalf("clean=%d degraded=%d all-shards-lost=%d, want ≥1, ≥1 and ≤15 of 60 (peer breaker trips: %d)",
			clean, degraded, lost, coord.metrics().Counters["cluster.breaker.trips"])
	}

	// A dead worker's front-ends drop out and fusion is rescaled over the
	// survivors, with the loss spelled out on the wire.
	w0.kill()
	var sr serve.ScoreResponse
	for i := 0; !sr.Degraded; i++ {
		if i == 40 {
			t.Fatal("the worker kill never degraded a response")
		}
		if i > 0 {
			time.Sleep(300 * time.Millisecond)
		}
		if code, out := coord.post("/v1/score", body); code == http.StatusOK {
			sr = decode[serve.ScoreResponse](t, out)
		}
	}
	if len(sr.Surviving) == 0 || len(sr.Fused) == 0 {
		t.Fatalf("degraded response lost its surviving set or survivor fusion: %+v", sr.ScoreResult)
	}
}

// TestFleetFootprintSmallSeed42: on the small seed-42 export the
// coordinator keeps no scoring weights (serve.model.packed_bytes 0), the
// two workers' weights add up to the standalone daemon's 3,065,440 B,
// and each worker's spool holds the exported bundle.gob byte for byte.
func TestFleetFootprintSmallSeed42(t *testing.T) {
	setup(t)
	models := t.TempDir()
	if _, stderr, err := runLre("-scale", "small", "-seed", "42", "-table", "none", "-export-models", models); err != nil {
		t.Fatalf("small export: %v\n%s", err, stderr)
	}
	const packed = "serve.model.packed_bytes"
	if got := startDaemon(t, "standalone", "-models", models).metrics().Gauges[packed]; got != 3065440 {
		t.Fatalf("standalone %s = %v, want 3065440", packed, got)
	}
	spools := []string{t.TempDir(), t.TempDir()}
	w0 := startDaemon(t, "worker0", "-role=worker", "-spool", spools[0])
	w1 := startDaemon(t, "worker1", "-role=worker", "-spool", spools[1])
	coord := startDaemon(t, "coordinator", "-role=coordinator", "-models", models, "-peers", w0.addr+","+w1.addr)
	if got := coord.metrics().Gauges[packed]; got != 0 {
		t.Fatalf("coordinator %s = %v, want 0", packed, got)
	}
	if got := w0.metrics().Gauges[packed] + w1.metrics().Gauges[packed]; got != 3065440 {
		t.Fatalf("workers' %s sum to %v, want the standalone's 3065440", packed, got)
	}
	export := readFile(t, filepath.Join(models, "bundle.gob"))
	for i, spool := range spools {
		if readFile(t, filepath.Join(spool, "bundle.gob")) != export {
			t.Fatalf("worker %d spool bundle.gob is not the exported one", i)
		}
	}
}

// TestCascadeSmoke: at margin -inf the cascade escalates everything and
// answers bit-identically to a cascade-less daemon; at +inf under a
// cascade.tier1 chaos plan every request still answers 200, with exits
// and tier-1 failures counted and rendered by lrestat.
func TestCascadeSmoke(t *testing.T) {
	setup(t)
	if m := decode[persist.Manifest](t, []byte(readFile(t, filepath.Join(fx.models, "manifest.json")))); m.Cascade != "HU" {
		t.Fatalf("exported bundle carries cascade %q, want HU", m.Cascade)
	}
	body := latticeBody("casc", battery, 5, 1)
	plain := startDaemon(t, "plain", "-models", fx.models, "-access-log", "none")
	escall := startDaemon(t, "escalate-all", "-models", fx.models, "-access-log", "none",
		"-cascade", "-cascade-margin=-inf")
	got := escall.score(body)
	sameScores(t, "escalate-all vs the cascade-less daemon", got, plain.score(body))
	if got.Cascade == nil || got.Cascade.Reason != cascade.ReasonLowMargin {
		t.Fatalf("escalate-all outcome %+v, want reason %s", got.Cascade, cascade.ReasonLowMargin)
	}
	promHas(t, escall.get("/metricsz?format=prom"), `serve_cascade_exit_total 0$`)

	// +inf sends every request through tier 1, where p=0.5 of them fail
	// and must escalate, never surface as a 5xx.
	d := startDaemon(t, "tier1-chaos", "-models", fx.models, "-access-log", "none",
		"-cascade", "-cascade-margin=+inf", "-chaos", "seed=7; cascade.tier1:error:p=0.5")
	for i := 0; i < 40; i++ {
		if code, out := d.post("/v1/score", body); code != http.StatusOK {
			t.Fatalf("request %d: tier-1 fault surfaced as %d: %s", i, code, out)
		}
	}
	promHas(t, d.get("/metricsz?format=prom"), `serve_cascade_exit_total [1-9]`, `serve_cascade_tier1_failed_total [1-9]`)
	contains(t, "lrestat", d.lrestat(), "cascade exit")
}

// promHas requires each pattern to match at the start of a line of a
// Prometheus exposition.
func promHas(t *testing.T, prom string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile(`(?m)^` + p).MatchString(prom) {
			t.Fatalf("Prometheus exposition has no line matching %s:\n%s", p, prom)
		}
	}
}

// TestCompressSmoke: a rank-24 int8 bundle is ≥5× smaller than the plain
// export, and a daemon serving it agrees with a plain daemon on the best
// language and the top-3 set. The tail of the ranking may differ: int8
// reorders near-tied languages, which is the measured ΔEER trade. A
// negative rank fails before the pipeline build.
func TestCompressSmoke(t *testing.T) {
	setup(t)
	_, stderr, err := runLre("-scale", "tiny", "-seed", "42", "-export-models", t.TempDir(), "-compress-rank", "-1")
	if err == nil || !bytes.Contains(stderr, []byte("-compress-rank -1")) || bytes.Contains(stderr, []byte("building pipeline")) {
		t.Fatalf("-compress-rank -1: err %v, stderr:\n%s\nwant a nonzero exit naming the rank before the pipeline build", err, stderr)
	}
	compressed := t.TempDir()
	if _, stderr, err := runLre("-scale", "tiny", "-seed", "42", "-export-models", compressed,
		"-compress-rank", "24"); err != nil {
		t.Fatalf("compressed export: %v\n%s", err, stderr)
	}
	if full, comp := len(readFile(t, fx.models+"/bundle.gob")), len(readFile(t, compressed+"/bundle.gob")); comp*5 > full {
		t.Fatalf("compressed bundle.gob is %d bytes, uncompressed %d: not ≥5× smaller", comp, full)
	}

	body := latticeBody("cmp", battery, 5)
	p := startDaemon(t, "plain", "-models", fx.models, "-access-log", "none").score(body)
	cd := startDaemon(t, "compressed", "-models", compressed, "-access-log", "none")
	c := cd.score(body)
	if pt, ct := top3(p), top3(c); p.Best != c.Best || !slices.Equal(pt, ct) {
		t.Fatalf("compressed daemon: best %s, top-3 %v; plain daemon: best %s, top-3 %v", c.Best, ct, p.Best, pt)
	}
	rep := cd.metrics()
	if rep.Meta["model_precision"] != "int8" || rep.Meta["model_rank"] != "24" || rep.Gauges["serve.model.bundle_bytes"] <= 0 {
		t.Fatalf("/metricsz lost the compressed footprint: meta %v, bundle_bytes %v", rep.Meta, rep.Gauges["serve.model.bundle_bytes"])
	}
}

// top3 is the set of the three best languages by fused score, sorted.
func top3(sr serve.ScoreResponse) []string {
	idx := make([]int, len(sr.Fused))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sr.Fused[idx[a]] > sr.Fused[idx[b]] })
	top := []string{sr.Languages[idx[0]], sr.Languages[idx[1]], sr.Languages[idx[2]]}
	slices.Sort(top)
	return top
}

// TestServeObsSmoke: a caller's traceparent round-trips into the
// response header and body, /tracez and the access log; a degraded
// request is kept as a /tracez exemplar with its surviving set; /metricsz
// speaks JSON with rolling windows and the Prometheus text format;
// lrestat renders.
func TestServeObsSmoke(t *testing.T) {
	setup(t)
	accessLog := filepath.Join(t.TempDir(), "access.log")
	// HU fails every 3rd scoring task, so a request soon degrades to RU.
	d := startDaemon(t, "lred", "-models", fx.models, "-access-log", accessLog, "-access-log-every", "1",
		"-chaos", "seed=7; serve.score.fe.HU:error:every=3")
	body := latticeBody("obs", []string{"RU"})

	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost, d.url("/v1/score"), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+trace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	out := d.read(resp, err)
	if sr := decode[serve.ScoreResponse](t, out); resp.StatusCode != http.StatusOK || sr.TraceID != trace {
		t.Fatalf("traced request: status %d: %s", resp.StatusCode, out)
	}
	contains(t, "response traceparent", resp.Header.Get("traceparent"), "00-"+trace+"-")
	contains(t, "/tracez", d.get("/tracez"), trace)
	contains(t, "access log", readFile(t, accessLog), trace)

	// The degraded trace is kept as an exemplar, and its log line is
	// forced past sampling.
	for i := 0; !d.score(body).Degraded; i++ {
		if i == 9 {
			t.Fatal("the fault plan never degraded a request")
		}
	}
	contains(t, "/tracez", d.get("/tracez"), `"exemplars":[`, `"degraded":true`, `"surviving":["RU"]`)
	contains(t, "access log", readFile(t, accessLog), `"degraded":true`)

	// Every logged line is byte for byte the /tracez record of its trace
	// id, plus a newline.
	recent := map[string]string{}
	for _, rec := range decode[struct{ Recent []json.RawMessage }](t, []byte(d.get("/tracez"))).Recent {
		recent[decode[obs.TraceEntry](t, rec).TraceID] = string(rec)
	}
	lines := strings.SplitAfter(readFile(t, accessLog), "\n")
	for _, line := range lines[:len(lines)-1] {
		id := decode[obs.TraceEntry](t, []byte(line)).TraceID
		if rec, ok := recent[id]; !ok || line != rec+"\n" {
			t.Fatalf("access log line for trace %s is not its /tracez record:\nline   %q\nrecord %q", id, line, rec)
		}
	}

	if d.metrics().Windows == nil {
		t.Fatal("JSON /metricsz lacks rolling windows")
	}
	promHas(t, d.get("/metricsz?format=prom"), `# TYPE serve_http_score_seconds histogram$`,
		`serve_http_score_seconds_bucket\{le="\+Inf"\}`, `serve_http_score_requests_total `)
	contains(t, "lrestat", d.lrestat(), "endpoint", "score")
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
