package adapt

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
	"repro/internal/sparse"
)

// sidecarPayload returns the payload (footer stripped) of a sidecar
// written by write into a fresh directory.
func sidecarPayload(f *testing.F, write func(dir string)) []byte {
	dir := f.TempDir()
	write(dir)
	data, err := os.ReadFile(filepath.Join(dir, SetFile))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := persist.Unseal(data)
	if err != nil {
		f.Fatal(err)
	}
	return payload
}

// FuzzLoadSet drives the sidecar reader with arbitrary streams. Inputs
// are sealed before they reach LoadSet — the footer would otherwise
// reject every mutation — so the skeleton and chunk decoding see them.
// Every input must end in an error or a Set that Validate accepts: never
// a panic, a hang, or an allocation the input does not pay for.
func FuzzLoadSet(f *testing.F) {
	s := plainSet(3, 2)
	fe0, fe1 := s.FrontEnds[0], s.FrontEnds[1]
	valid := sidecarPayload(f, func(dir string) {
		if err := SaveSet(dir, s); err != nil {
			f.Fatal(err)
		}
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add(sidecarPayload(f, func(dir string) { // an empty chunk
		writeRaw(f, dir, skeletonOf(s), []*sparse.Vector{}, fe0.Train, fe0.Holdout, fe1.Train, fe1.Holdout)
	}))
	f.Add(sidecarPayload(f, func(dir string) { // a chunk past the label count
		writeRaw(f, dir, skeletonOf(s), append(fe0.Train[:3:3], fe0.Holdout[0]), fe0.Holdout, fe1.Train, fe1.Holdout)
	}))
	f.Add(sidecarPayload(f, func(dir string) { // version 1: one gob value
		v1 := *s
		v1.FormatVersion = 1
		if err := persist.Save(filepath.Join(dir, SetFile), &v1); err != nil {
			f.Fatal(err)
		}
	}))
	f.Add(sidecarPayload(f, func(dir string) { // version 2: 256-vector chunks
		writeV2(f, dir, plainSet(chunkSize+8, 2))
	}))

	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SetFile), persist.Seal(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadSet(dir)
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("LoadSet returned a set Validate refuses: %v", verr)
		}
	})
}

// FuzzParsePolicy asserts the parser never panics and that accepted
// specs are a canonical fixed point: ParsePolicy(p.String()) == p, and
// String is idempotent across that second parse. Runs in CI's fuzz-short
// job alongside the persist and checkpoint targets.
func FuzzParsePolicy(f *testing.F) {
	f.Add("")
	f.Add("on")
	f.Add("default")
	f.Add("cadence=5m;probe=30s;votes=4;method=m2")
	f.Add("cadence=90s;votes=1;method=m1;min-utts=1;buffer=64;shadow-rate=1;shadow-bound=0.5;eer-budget=0;canary-tol=0.125;keep=2")
	f.Add("votes=0")
	f.Add("method=m3")
	f.Add(";;;")
	f.Add("votes=2;votes=3")
	f.Add("shadow-rate=1e308")
	f.Add("cadence=9223372036854775807ns")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePolicy(spec)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("ParsePolicy(%q) returned an invalid policy: %v", spec, verr)
		}
		s := p.String()
		p2, err := ParsePolicy(s)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", s, spec, err)
		}
		if p2 != p {
			t.Fatalf("round trip of %q: %+v != %+v", spec, p2, p)
		}
		if s2 := p2.String(); s2 != s {
			t.Fatalf("String not a fixed point: %q then %q", s, s2)
		}
	})
}
