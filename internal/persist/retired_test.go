package persist_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/persist"
	"repro/internal/proj"
	"repro/internal/serve"
	"repro/internal/testbundle"
)

// reexport is the command the one refusal names.
const reexport = "lre -export-models DIR -compress-rank N"

// refused reports whether err is the one re-export refusal.
func refused(err error) bool {
	return errors.Is(err, proj.ErrRetired) && strings.Contains(err.Error(), reexport)
}

// TestRetiredBundleRefused hand-builds a bundle in each retired
// compressed shape — a float32 basis, and the float64 basis with
// rank-space float64 weights that the float64 rung exported — and seals
// it. A load, the push reader, a registry reload and a worker's
// POST /-/bundle each refuse it with the one re-export message and
// change nothing. The refusal comes at Validate: after the footer, the
// SHA-256 and the decode, before the manifest's geometry.
func TestRetiredBundleRefused(t *testing.T) {
	const seed, rank = 5, 4
	compressed := testbundle.NewCompressed(t, seed, rank)
	for _, prec := range []string{"float32", "float64"} {
		t.Run(prec, func(t *testing.T) {
			image, err := persist.MarshalSealed(persist.Retire(compressed, prec))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(image)
			pinned := hex.EncodeToString(sum[:])

			// A model dir serving the int8 export, then the retired image
			// and its manifest written over it.
			dir := t.TempDir()
			if err := persist.SaveBundle(dir, compressed, persist.Manifest{Seed: seed}); err != nil {
				t.Fatal(err)
			}
			reg := serve.NewRegistry(dir)
			if _, err := reg.Reload(); err != nil {
				t.Fatal(err)
			}
			prev := reg.Current()
			install := func(edit func(*persist.Manifest)) {
				t.Helper()
				m := readManifest(t, dir)
				m.BundleSHA256 = pinned
				for i := range m.FrontEndDims {
					m.FrontEndDims[i].Precision = prec
				}
				if edit != nil {
					edit(&m)
				}
				writeFile(t, filepath.Join(dir, m.BundleFile), image)
				data, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				writeFile(t, filepath.Join(dir, persist.ManifestName), data)
			}

			install(nil)
			if _, _, err := persist.LoadBundle(dir); !refused(err) {
				t.Errorf("load: err=%v, want the re-export message", err)
			}
			if _, err := persist.UnsealBundle(bytes.NewReader(image), int64(len(image)), persist.Manifest{}); !refused(err) {
				t.Errorf("push reader: err=%v, want the re-export message", err)
			}
			if _, err := reg.Reload(); !refused(err) {
				t.Errorf("reload: err=%v, want the re-export message", err)
			}
			if reg.Current() != prev {
				t.Error("refused reload swapped the model")
			}
			// The SHA-256 check comes first: a manifest pinning other
			// bytes is corruption, whatever the bundle holds.
			install(func(m *persist.Manifest) { m.BundleSHA256 = strings.Repeat("0", 64) })
			if _, _, err := persist.LoadBundle(dir); !errors.Is(err, persist.ErrCorrupt) || refused(err) {
				t.Errorf("under a wrong SHA-256: err=%v, want the SHA-256 mismatch", err)
			}
			// The geometry check comes after: a manifest recording another
			// rank still gets the re-export message.
			install(func(m *persist.Manifest) { m.FrontEndDims[0].Rank = rank + 5 })
			if _, _, err := persist.LoadBundle(dir); !refused(err) {
				t.Errorf("under a doctored geometry: err=%v, want the re-export message", err)
			}

			// A worker serving generation 1 of the int8 export refuses the
			// retired image as generation 2 and keeps its spool.
			spool := t.TempDir()
			w, url := startWorker(t, spool)
			good, err := persist.MarshalSealed(compressed)
			if err != nil {
				t.Fatal(err)
			}
			if code, body := push(t, url, good, 1); code != http.StatusOK {
				t.Fatalf("int8 push: status %d: %s", code, body)
			}
			before := spoolState(t, w, spool)
			if code, body := push(t, url, image, 2); code != http.StatusBadRequest || !strings.Contains(body, reexport) {
				t.Errorf("push: status %d %s, want 400 naming %q", code, body, reexport)
			}
			if after := spoolState(t, w, spool); after != before {
				t.Errorf("refused push changed the spool or the served generation (%d → %d)", before.gen, after.gen)
			}
		})
	}
}

// startWorker runs a shard worker over spool on a loopback port until
// the test ends, and returns it with its POST /-/bundle URL.
func startWorker(t *testing.T, spool string) (*cluster.Worker, string) {
	t.Helper()
	w, err := cluster.NewWorker(serve.Config{ModelDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	})
	return w, "http://" + l.Addr().String() + "/-/bundle"
}

// push posts image to a worker's url as generation gen of a
// two-front-end shard and returns the response status and body.
func push(t *testing.T, url string, image []byte, gen int64) (int, string) {
	t.Helper()
	sum := sha256.Sum256(image)
	mf, err := json.Marshal(persist.Manifest{
		ClusterGeneration: gen,
		BundleSHA256:      hex.EncodeToString(sum[:]),
		FrontEnds:         []string{"FE0", "FE1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(cluster.ManifestHeader, string(mf))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// workerState is what a push may change on a worker: its spool files
// and the generation it serves.
type workerState struct {
	bundle, manifest string
	gen              int64
}

func spoolState(t *testing.T, w *cluster.Worker, spool string) workerState {
	t.Helper()
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join(spool, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	st := workerState{bundle: read("bundle.gob"), manifest: read(persist.ManifestName)}
	if m := w.Server().Registry().Current(); m != nil {
		st.gen = m.ClusterGeneration()
	}
	return st
}

func readManifest(t *testing.T, dir string) persist.Manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, persist.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m persist.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
