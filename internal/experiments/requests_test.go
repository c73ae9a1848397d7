package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
	"repro/internal/sparse"
)

// TestExportRequestsRoundTrip is the replay↔serve contract: every
// exported line must decode with the real server request types, carry
// the full battery as scaled supervectors, and score bit-identically to
// the pipeline's own baseline matrix for the utterance its id names.
func TestExportRequestsRoundTrip(t *testing.T) {
	p := sharedPipeline(t)
	path := filepath.Join(t.TempDir(), "requests.jsonl")
	const n = 8
	written, voted, err := p.ExportRequests(path, n)
	if err != nil {
		t.Fatal(err)
	}
	if written != n {
		t.Fatalf("wrote %d requests, want %d", written, n)
	}
	// The head of the file is the vote-selected slice — the property the
	// adapt drill (internal/e2e) replays it for.
	if voted < 1 {
		t.Fatalf("no vote-selected requests in the first %d", n)
	}

	feIndex := make(map[string]int, len(p.FEs))
	for q, fe := range p.FEs {
		feIndex[fe.Name] = q
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	lines := 0
	for sc.Scan() {
		var req serve.ScoreRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			t.Fatalf("line %d does not decode as a serve request: %v", lines, err)
		}
		if len(req.FrontEnds) != len(p.FEs) {
			t.Fatalf("line %d carries %d front-ends, want the full battery of %d", lines, len(req.FrontEnds), len(p.FEs))
		}
		var j int
		if _, err := fmt.Sscanf(req.ID, "replay-%d", &j); err != nil {
			t.Fatalf("line %d id %q does not name an utterance: %v", lines, req.ID, err)
		}
		for name, in := range req.FrontEnds {
			q, ok := feIndex[name]
			if !ok {
				t.Fatalf("line %d names unknown front-end %q", lines, name)
			}
			if in.Supervector == nil || in.Lattice != nil {
				t.Fatalf("line %d front-end %q is not supervector evidence", lines, name)
			}
			if !in.Supervector.Scaled {
				t.Fatalf("line %d front-end %q not marked scaled", lines, name)
			}
			v := &sparse.Vector{Idx: in.Supervector.Idx, Val: in.Supervector.Val}
			if err := v.Validate(); err != nil {
				t.Fatalf("line %d front-end %q vector: %v", lines, name, err)
			}
			got := p.Baseline[q].Scores(v)
			want := p.BaselineScores[q][j]
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("line %d (utt %d) front-end %q score %d: %g != %g", lines, j, name, k, got[k], want[k])
				}
			}
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != n {
		t.Fatalf("file holds %d lines, want %d", lines, n)
	}

	// n<=0 exports the whole pooled test set.
	all := filepath.Join(t.TempDir(), "all.jsonl")
	written, _, err = p.ExportRequests(all, 0)
	if err != nil {
		t.Fatal(err)
	}
	if written != len(p.TestLabels) {
		t.Fatalf("exported %d of %d pooled utterances", written, len(p.TestLabels))
	}
}
