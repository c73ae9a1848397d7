package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
	"repro/internal/testbundle"
)

func TestRegistryReloadAndVersioning(t *testing.T) {
	dir := t.TempDir()
	testbundle.Write(t, dir, 1)
	reg := NewRegistry(dir)
	if reg.Current() != nil {
		t.Fatal("model present before any reload")
	}
	m1, err := reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if m1.Version != 1 {
		t.Fatalf("first version %d, want 1", m1.Version)
	}
	if reg.Current() != m1 {
		t.Fatal("Current does not return the loaded model")
	}
	if len(m1.spaces) != len(m1.Bundle.FrontEnds) {
		t.Fatalf("%d spaces for %d front-ends", len(m1.spaces), len(m1.Bundle.FrontEnds))
	}

	testbundle.Write(t, dir, 2)
	m2, err := reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != 2 {
		t.Fatalf("second version %d, want 2", m2.Version)
	}
	if reg.Current() != m2 {
		t.Fatal("swap did not take")
	}
}

func TestRegistryFailedReloadKeepsPreviousModel(t *testing.T) {
	dir := t.TempDir()
	testbundle.Write(t, dir, 1)
	reg := NewRegistry(dir)
	m1, err := reg.Reload()
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the bundle body; the manifest still parses.
	if err := os.WriteFile(filepath.Join(dir, "bundle.gob"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Reload(); err == nil {
		t.Fatal("reload of a corrupt bundle succeeded")
	}
	if reg.Current() != m1 {
		t.Fatal("failed reload replaced the serving model")
	}
	if reg.Current().Version != 1 {
		t.Fatalf("version advanced to %d on a failed reload", reg.Current().Version)
	}

	// A repaired bundle loads and resumes version numbering.
	testbundle.Write(t, dir, 3)
	m2, err := reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != 2 {
		t.Fatalf("version after recovery %d, want 2", m2.Version)
	}
}

func TestRegistryMissingDir(t *testing.T) {
	reg := NewRegistry(filepath.Join(t.TempDir(), "nope"))
	if _, err := reg.Reload(); err == nil {
		t.Fatal("reload from a missing directory succeeded")
	}
	if reg.Current() != nil {
		t.Fatal("model appeared from a missing directory")
	}
}

func TestManifestRoundTripThroughRegistry(t *testing.T) {
	dir := t.TempDir()
	b := testbundle.New(9)
	if err := persist.SaveBundle(dir, b, persist.Manifest{
		Seed: 9, Scale: "test", GitDescribe: "deadbeef",
	}); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir)
	m, err := reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if m.Manifest.Seed != 9 || m.Manifest.Scale != "test" || m.Manifest.GitDescribe != "deadbeef" {
		t.Fatalf("manifest did not round-trip: %+v", m.Manifest)
	}
	if m.Manifest.NumLanguages != len(b.Languages) {
		t.Fatalf("manifest languages %d, want %d", m.Manifest.NumLanguages, len(b.Languages))
	}
	if len(m.Manifest.FrontEnds) != len(b.FrontEnds) {
		t.Fatalf("manifest front-ends %v", m.Manifest.FrontEnds)
	}
}
