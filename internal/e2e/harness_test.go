// Package e2e runs the binary-level drills: the tests build lre, lred
// and lrestat, boot real daemons on ephemeral ports, and check contracts
// only whole processes show. Run one with
// `go test -run TestClusterSmoke ./internal/e2e/`. The drills skip under
// -short, because the binaries they exec are not built with -race.
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// root is the module root, where the go commands run.
const root = "../.."

// workDir holds the binaries and the shared export; TestMain removes it.
var workDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lre-e2e-")
	if err != nil {
		panic(err)
	}
	workDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// fx is what every drill starts from: the built binaries, the tiny
// seed-42 export, and 24 replay /v1/score bodies exported with it, one
// per line. models is shared, so a drill that writes into its model dir
// works on a copyDir of it.
var fx struct{ lre, lred, lrestat, models, requests string }

var (
	buildOnce sync.Once
	buildErr  error
)

// setup skips under -short, and otherwise builds the binaries and
// exports the bundle on first use.
func setup(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("the e2e drills exec binaries built without -race")
	}
	buildOnce.Do(func() { buildErr = build() })
	if buildErr != nil {
		t.Fatal(buildErr)
	}
}

func build() error {
	cmds := []string{"./cmd/lre", "./cmd/lred", "./cmd/lrestat"}
	if _, err := deps(cmds...); err != nil {
		return err
	}
	bin := filepath.Join(workDir, "bin") + string(filepath.Separator)
	cmd := exec.Command("go", append([]string{"build", "-o", bin}, cmds...)...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	fx.lre, fx.lred, fx.lrestat = bin+"lre", bin+"lred", bin+"lrestat"
	fx.models, fx.requests = filepath.Join(workDir, "models"), filepath.Join(workDir, "requests.jsonl")
	if _, stderr, err := runLre("-scale", "tiny", "-seed", "42", "-export-models", fx.models,
		"-export-requests", fx.requests, "-export-requests-count", "24"); err != nil {
		return fmt.Errorf("export: %v\n%s", err, stderr)
	}
	return nil
}

// deps returns the import paths pkgs depend on, and opens go.mod and
// every Go file of the module's packages among them. go test caches a
// pass keyed on the files the test opened, so this is what makes an edit
// to a command's source re-run the drills instead of reporting a stale
// cached pass.
func deps(pkgs ...string) ([]string, error) {
	const format = `{{.ImportPath}}{{if not .Standard}}{{range .GoFiles}}{{"\t"}}{{$.Dir}}{{"/"}}{{.}}{{end}}{{end}}`
	cmd := exec.Command("go", append([]string{"list", "-deps", "-f", format}, pkgs...)...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var paths []string
	files := []string{filepath.Join(root, "go.mod")}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Split(line, "\t")
		paths = append(paths, fields[0])
		files = append(files, fields[1:]...)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		f.Close()
	}
	return paths, nil
}

// copyDir copies the flat directory src into a fresh test directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	names, _ := filepath.Glob(filepath.Join(src, "*")) // fails only on a bad pattern
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, filepath.Base(name)), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// runLre runs lre with args; err is nil when it exits 0.
func runLre(args ...string) (stdout, stderr []byte, err error) {
	var o, e bytes.Buffer
	cmd := exec.Command(fx.lre, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err = cmd.Run()
	return o.Bytes(), e.Bytes(), err
}

// daemon is one lred process on an ephemeral port.
type daemon struct {
	t       *testing.T
	name    string
	cmd     *exec.Cmd
	logPath string        // the process's stderr
	addr    string        // host:port, read from the log
	done    chan struct{} // closed once the process has been waited for
	err     error         // the Wait result, valid after done is closed
	killed  bool
}

var servingOn = regexp.MustCompile(`serving on http://(\S+)`)

// startDaemon runs lred on 127.0.0.1:0 with args, reads the bound
// address from its "serving on http://" line, and polls /readyz until it
// answers 200 (/healthz for a worker, which is not ready before the
// coordinator's push). At cleanup, every daemon the test did not kill
// must stop cleanly, and if the test failed each daemon's stderr goes to
// the test log.
func startDaemon(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, name: name, logPath: filepath.Join(t.TempDir(), "stderr"), done: make(chan struct{})}
	d.cmd = exec.Command(fx.lred, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := os.Create(d.logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	d.cmd.Stderr = stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		if !d.killed && !t.Failed() {
			d.stop()
		}
		d.kill()
		if t.Failed() {
			t.Logf("%s stderr:\n%s", name, d.log())
		}
	})
	probe := "/readyz"
	if slices.Contains(args, "-role=worker") {
		probe = "/healthz"
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		select {
		case <-d.done:
			t.Fatalf("%s exited while starting: %v", name, d.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not ready within a minute", name)
		}
		if m := servingOn.FindStringSubmatch(d.log()); m != nil {
			d.addr = m[1]
			if resp, err := http.Get(d.url(probe)); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d
				}
			}
		}
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) log() string {
	data, _ := os.ReadFile(d.logPath) // created before the process started
	return string(data)
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// "drained cleanly" log line.
func (d *daemon) stop() {
	d.t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM) // a process that already exited fails below
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.t.Errorf("%s did not drain within 30 s", d.name)
		return
	}
	if d.err != nil || !strings.Contains(d.log(), "drained cleanly") {
		d.t.Errorf("%s did not drain cleanly after SIGTERM: %v", d.name, d.err)
	}
}

// kill ends the process with SIGKILL, no drain, and waits for it. It is
// a no-op once the process has exited.
func (d *daemon) kill() {
	d.killed = true
	d.cmd.Process.Kill()
	<-d.done
}

// read returns the body of a response, failing the test on a transport
// error.
func (d *daemon) read(resp *http.Response, err error) []byte {
	d.t.Helper()
	if err != nil {
		d.t.Fatalf("%s: %v", d.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatalf("%s: %v", d.name, err)
	}
	return body
}

// post sends body to path and returns the status and response body.
func (d *daemon) post(path string, body []byte) (int, []byte) {
	d.t.Helper()
	resp, err := http.Post(d.url(path), "application/json", bytes.NewReader(body))
	out := d.read(resp, err)
	return resp.StatusCode, out
}

// get fetches path and requires a 200.
func (d *daemon) get(path string) string {
	d.t.Helper()
	resp, err := http.Get(d.url(path))
	out := d.read(resp, err)
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("%s GET %s: status %d: %s", d.name, path, resp.StatusCode, out)
	}
	return string(out)
}

// score posts one /v1/score body and requires a 200 that names a best
// language and carries per-front-end scores.
func (d *daemon) score(body []byte) serve.ScoreResponse {
	d.t.Helper()
	code, out := d.post("/v1/score", body)
	sr := decode[serve.ScoreResponse](d.t, out)
	if code != http.StatusOK || sr.Best == "" || len(sr.Scores) == 0 {
		d.t.Fatalf("%s /v1/score: status %d: %s", d.name, code, out)
	}
	return sr
}

// metrics fetches the JSON /metricsz report.
func (d *daemon) metrics() obs.Report {
	d.t.Helper()
	return decode[obs.Report](d.t, []byte(d.get("/metricsz")))
}

// lrestat renders one lrestat snapshot of the daemon.
func (d *daemon) lrestat() string {
	d.t.Helper()
	out, err := exec.Command(fx.lrestat, "-addr", d.addr, "-once").CombinedOutput()
	if err != nil {
		d.t.Fatalf("lrestat: %v\n%s", err, out)
	}
	return string(out)
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %T: %v: %s", v, err, data)
	}
	return v
}

// sameScores requires the scores, fused row and best language of two
// responses to be bit-identical. JSON float64 encoding round-trips
// exactly, so comparing the decoded values compares the bits.
func sameScores(t *testing.T, what string, got, want serve.ScoreResponse) {
	t.Helper()
	if !reflect.DeepEqual(got.Scores, want.Scores) || !reflect.DeepEqual(got.Fused, want.Fused) || got.Best != want.Best {
		t.Fatalf("%s: scores differ\ngot  best=%s fused=%v scores=%v\nwant best=%s fused=%v scores=%v",
			what, got.Best, got.Fused, got.Scores, want.Best, want.Fused, want.Scores)
	}
}

// contains requires text to contain every one of subs.
func contains(t *testing.T, what, text string, subs ...string) {
	t.Helper()
	for _, s := range subs {
		if !strings.Contains(text, s) {
			t.Fatalf("%s lacks %q:\n%s", what, s, text)
		}
	}
}

// battery names the tiny export's front-ends other than HU.
var battery = []string{"RU", "CZ", "EN-DNN", "MA", "EN-GMM"}

// latticeBody is a /v1/score body. HU's lattice is a slot of phones 1
// (0.9) and 2 (0.1), then one certain slot per phone in huTail; each
// front-end in others gets one certain slot of phone 3, 4, … in order.
func latticeBody(id string, others []string, huTail ...int) []byte {
	hu := [][]serve.Slot{{{Phone: 1, Prob: 0.9}, {Phone: 2, Prob: 0.1}}}
	for _, ph := range huTail {
		hu = append(hu, []serve.Slot{{Phone: ph, Prob: 1}})
	}
	req := serve.ScoreRequest{ID: id, FrontEnds: map[string]serve.FrontEndInput{"HU": {Lattice: hu}}}
	for i, fe := range others {
		req.FrontEnds[fe] = serve.FrontEndInput{Lattice: [][]serve.Slot{{{Phone: 3 + i, Prob: 1}}}}
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return data
}
