package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/persist"
)

// TestMain caps how long the fuzzer minimizes each new interesting
// input at 2 s unless -test.fuzzminimizetime is given. FuzzBundlePush's
// seeds carry a bundle image of several kilobytes, and the minimizer's
// byte-range removal pass is quadratic in the input's length, so at the
// default 60 s a new input grown from one took the whole minute,
// uncounted in execs/s: the fuzzer sat at 0 execs/s for that long.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.fuzzminimizetime" })
	if !set {
		flag.Set("test.fuzzminimizetime", "2s")
	}
	os.Exit(m.Run())
}

// FuzzBundlePush drives a worker's POST /-/bundle handler with arbitrary
// X-Cluster-Manifest values and bodies, each declared with a length that
// may be off by extra bytes. Every push must answer 200 or a 4xx, never
// panic, and only a 200 may change the spool's bundle.gob and
// manifest.json bytes or the generation the worker serves. A 200 leaves
// the pushed body itself as bundle.gob, and a fresh LoadBundle of the
// spool equals the model served. Seeds: a valid push and truncated,
// bit-flipped and header-mangled copies of it, and the push contract's
// refusals — an image other than the pinned one, an assignment naming a
// front-end the image lacks, an empty or duplicated assignment — and the
// failure table's re-sealed garbage payload and length mismatches.
func FuzzBundlePush(f *testing.F) {
	fl := newFleet(f, 1, nil)
	mustDistribute(f, fl)
	mf, sealed := validPush(f, fl, 0, 2)
	f.Add(mf, sealed, int64(0))
	f.Add(mf, sealed[:len(sealed)/2], int64(0))
	f.Add(mf, sealed[:len(sealed)-1], int64(0))
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(mf, flipped, int64(0))
	f.Add("", sealed, int64(0))
	f.Add("{}", sealed, int64(0))
	f.Add(`{"cluster_generation":-1}`, sealed, int64(0))
	f.Add(mf[:len(mf)/2], sealed, int64(0))
	f.Add(mf, []byte{}, int64(0))
	f.Add(editManifest(f, mf, func(m *persist.Manifest) { m.BundleSHA256 = strings.Repeat("f", 64) }), sealed, int64(0))
	f.Add(editManifest(f, mf, assigning("FE0", "FE7")), sealed, int64(0))
	f.Add(editManifest(f, mf, assigning()), sealed, int64(0))
	f.Add(editManifest(f, mf, assigning("FE0", "FE0")), sealed, int64(0))
	f.Add(mf, sealed[:len(sealed)*3/4], int64(0))
	// The failure table's seeds: a payload sealed afresh, so the footer
	// and the pinned SHA-256 verify but the decode fails, and bodies
	// shorter and longer than their declared length.
	for _, c := range failingCases(f, fl) {
		if c.name == "re-sealed garbage payload" || c.extra != 0 {
			f.Add(c.manifest, c.body, c.extra)
		}
	}

	h := fl.workers[0].Handler()
	f.Fuzz(func(t *testing.T, manifest string, body []byte, extra int64) {
		before := readSpool(t, fl, 0)
		rec := serveBody(h, bundleContentType, manifest, bytes.NewReader(body), int64(len(body))+extra)
		after := readSpool(t, fl, 0)
		switch {
		case rec.Code == http.StatusOK:
			var ack bundleAck
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.Generation != after.gen {
				t.Fatalf("200 ack %s (%v) does not name the served generation %d", rec.Body.String(), err, after.gen)
			}
			if after.bundle != string(body) {
				t.Fatal("200 left a spool bundle.gob that is not the pushed body")
			}
			b, m, err := persist.LoadBundle(fl.spools[0])
			cur := fl.workers[0].Server().Registry().Current()
			if err != nil || !reflect.DeepEqual(b, cur.Bundle) || !reflect.DeepEqual(m, cur.Manifest) {
				t.Fatalf("200 serves a model the spool does not load back (%v)", err)
			}
		case rec.Code >= 400 && rec.Code < 500:
			if after != before {
				t.Fatalf("refused push (%d %s) changed the spool or the served generation (%d → %d)", rec.Code, rec.Body.String(), before.gen, after.gen)
			}
		default:
			t.Fatalf("push answered %d: %s", rec.Code, rec.Body.String())
		}
	})
}
