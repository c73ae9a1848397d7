package persist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/testbundle"
)

// TestOldFormatBundleRefused writes a bundle directory as a format-1
// build exported it (persist.WriteV1Dir: the precision strings, the
// basis's float fields, the cascade's own version, format 1's manifest)
// and checks that every way a bundle arrives refuses it with the one
// re-export message and changes nothing: a load; a registry reload,
// after which the previous model keeps serving; an adapt root whose
// base and committed generation are both format 1; and a worker's
// POST /-/bundle, which answers 400 and keeps its spool and generation.
func TestOldFormatBundleRefused(t *testing.T) {
	const seed, rank = 5, 4
	msg := fmt.Sprintf("persist: bundle format 1 (want %d): re-export with lre -export-models DIR", persist.BundleFormatVersion)
	refused := func(err error) bool { return err != nil && strings.Contains(err.Error(), msg) }
	for _, fx := range []struct {
		name string
		b    *persist.Bundle
	}{
		{"plain", testbundle.NewCascade(t, seed)},
		{"int8", testbundle.NewCompressed(t, seed, rank)},
	} {
		t.Run(fx.name, func(t *testing.T) {
			// A model dir serving this build's export, then the format-1
			// export written over it.
			dir := t.TempDir()
			if err := persist.SaveBundle(dir, fx.b, persist.Manifest{Seed: seed}); err != nil {
				t.Fatal(err)
			}
			reg := serve.NewRegistry(dir)
			if _, err := reg.Reload(); err != nil {
				t.Fatal(err)
			}
			prev := reg.Current()
			current, err := os.ReadFile(filepath.Join(dir, persist.BundleName))
			if err != nil {
				t.Fatal(err)
			}
			currentMF := readManifest(t, dir)
			v1, err := persist.WriteV1Dir(dir, fx.b)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := persist.LoadBundle(dir); !refused(err) {
				t.Errorf("load: err=%v, want %q", err, msg)
			}
			if _, err := reg.Reload(); !refused(err) {
				t.Errorf("reload: err=%v, want %q", err, msg)
			}
			if reg.Current() != prev {
				t.Error("refused reload swapped the model")
			}

			// An adapt root exported and promoted by a format-1 build.
			root := t.TempDir()
			if _, err := persist.WriteV1Dir(root, fx.b); err != nil {
				t.Fatal(err)
			}
			gen := filepath.Join(root, persist.GenDirName(1))
			if err := os.Mkdir(gen, 0o755); err != nil {
				t.Fatal(err)
			}
			if _, err := persist.WriteV1Dir(gen, fx.b); err != nil {
				t.Fatal(err)
			}
			if err := persist.CommitBundle(persist.BundleRoot(root), 1, persist.GenDirName(1), "", persist.BaseGenDir, ""); err != nil {
				t.Fatal(err)
			}
			if _, err := serve.NewRegistry(root).Reload(); !refused(err) {
				t.Errorf("adapt root: err=%v, want %q", err, msg)
			}

			// A worker serving generation 1 of this build's export refuses
			// the format-1 image as generation 2.
			spool := t.TempDir()
			w, url := startWorker(t, spool)
			currentMF.ClusterGeneration = 1
			if code, body := push(t, url, current, currentMF); code != http.StatusOK {
				t.Fatalf("push of this build's export: status %d: %s", code, body)
			}
			before := spoolState(t, w, spool)
			var v1MF map[string]any
			data, err := os.ReadFile(filepath.Join(dir, persist.ManifestName))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &v1MF); err != nil {
				t.Fatal(err)
			}
			v1MF["cluster_generation"] = 2
			if code, body := push(t, url, v1, v1MF); code != http.StatusBadRequest || !strings.Contains(body, msg) {
				t.Errorf("push: status %d %s, want 400 naming %q", code, body, msg)
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

// push posts image to a worker's url under the shard manifest mf, a
// value that marshals to the manifest's JSON, and returns the response
// status and body.
func push(t *testing.T, url string, image []byte, mf any) (int, string) {
	t.Helper()
	hdr, err := json.Marshal(mf)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(cluster.ManifestHeader, string(hdr))
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
	st := workerState{bundle: read(persist.BundleName), manifest: read(persist.ManifestName)}
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
