package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with EVALSCORES_TEST_MAIN set, so the tests can check its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("EVALSCORES_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// evalscores runs the command on a score file and returns its stdout,
// stderr and exit error.
func evalscores(t *testing.T, content string) (string, string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scores.tsv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, path)
	cmd.Env = append(os.Environ(), "EVALSCORES_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	return stdout.String(), stderr.String(), err
}

const header = "system\tduration_s\tmodel\tsegment\ttruth\tscore\n"

func TestScoresAFile(t *testing.T) {
	stdout, stderr, err := evalscores(t, header+
		"sys\t30\tfarsi\tseg1\tfarsi\t2\n"+
		"sys\t30\thindi\tseg1\tfarsi\t-2\n"+
		"sys\t30\tfarsi\tseg2\thindi\t-1\n"+
		"sys\t30\thindi\tseg2\thindi\t1\n")
	if err != nil {
		t.Fatalf("exit: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "sys") || !strings.Contains(stdout, "0.00") {
		t.Fatalf("stdout %q lacks the perfect system's row", stdout)
	}
}

// TestRefusesNonFiniteScore: one NaN score line makes the command exit
// non-zero with an error naming the record, instead of printing metrics
// that depend on where the sort put the NaN.
func TestRefusesNonFiniteScore(t *testing.T) {
	stdout, stderr, err := evalscores(t, header+
		"sys\t30\tfarsi\tseg1\tfarsi\t2\n"+
		"sys\t30\thindi\tseg1\tfarsi\tNaN\n"+
		"sys\t30\tfarsi\tseg2\thindi\t-1\n"+
		"sys\t30\thindi\tseg2\thindi\t1\n")
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("exit %v, want a non-zero status; stdout:\n%s", err, stdout)
	}
	for _, want := range []string{"record 1", `"seg1"`, `"hindi"`, "NaN"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr %q does not name %s", stderr, want)
		}
	}
}
