package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The offline job exports after its DBA passes and Table 4; the bundle it
// writes must be byte-identical to a plain export of the same seed, so
// nothing in the job touches the baseline models.
func TestOfflineExportEqualsSetupExport(t *testing.T) {
	svDir, _, _ := fixture(t, "sv-replay")
	offDir, _, _ := fixture(t, "offline-dba")
	a, err := os.ReadFile(filepath.Join(svDir, modelsDir, "bundle.gob"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(offDir, modelsDir, "bundle.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("offline-dba exported %d bytes that differ from the set-up export's %d", len(b), len(a))
	}
	var rep setupReport
	if err := readJSON(filepath.Join(offDir, setupFile), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != offlineRepeats || len(rep.BuildS) != offlineRepeats {
		t.Fatalf("offline report is incomplete: %+v", rep)
	}
	for _, j := range rep.Jobs {
		if j.WallS <= 0 || j.CPUS <= 0 || j.PeakRSSKB <= 0 {
			t.Fatalf("offline job figures missing: %+v", j)
		}
	}
}

// The golden Table 4 the offline workload checks at seed 42 is the one the
// pipeline renders.
func TestGoldenTable4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the small pipeline")
	}
	got := table4Text(experiments.ScaleSmall, 42)
	if got != goldenTable4 {
		t.Fatalf("small seed-42 Table 4 differs from testdata/table4_small_seed42.txt:\n%s", got)
	}
}

// At medium scale, seed 42, the offline job's Table 4 and headline are the
// block committed in results_medium_seed42.txt.
func TestTable4MatchesCommittedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the medium pipeline")
	}
	data, err := os.ReadFile(filepath.Join("..", "results_medium_seed42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "Table 4:")
	end := strings.Index(text, "Table 5:")
	if start < 0 || end < start {
		t.Fatal("no Table 4 block in results_medium_seed42.txt")
	}
	want := strings.TrimSpace(text[start:end])
	if got := strings.TrimSpace(table4Text(experiments.ScaleMedium, 42)); got != want {
		t.Fatalf("medium seed-42 Table 4 differs from results_medium_seed42.txt:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// table4Text renders Table 4 with its headline, as the offline workload
// does.
func table4Text(scale experiments.Scale, seed uint64) string {
	p := experiments.BuildPipeline(scale, seed)
	t4 := experiments.RunTable4(p, table4V)
	return t4.String() + "\n" + t4.Summary()
}
