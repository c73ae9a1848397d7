package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/dba"
	"repro/internal/serve"
	"repro/internal/synthlang"
)

// Replay-request export (the cmd/lre -export-requests path): pooled test
// utterances written as ready-to-POST /v1/score bodies, one JSON object
// per line. Each front-end's evidence goes out as its cached TFLLR-scaled
// supervector marked scaled, so a daemon serving the matching exported
// bundle scores each line bit-identically to the offline pipeline — the
// replay file is a deterministic traffic source for smoke tests, load
// generation, and the internal/e2e adapt promotion drill. Lines are
// written with internal/serve's own request types.

// ExportRequests writes up to n pooled test utterances (0 or negative:
// all) as replay requests. Utterances that the exported sidecar's
// calibrated Eq. 13 voting selects at threshold 1 are written first —
// a replay of the file's head therefore feeds an online adapter
// observations it will act on, which is what the promotion smoke drill
// needs — followed by the remaining pooled order. Returns how many
// requests were written and how many of them are vote-selected.
func (p *Pipeline) ExportRequests(path string, n int) (written, voted int, err error) {
	total := len(p.TestLabels)
	if n <= 0 || n > total {
		n = total
	}

	// The sidecar's vote calibration (pooledVoteShifts) applied to the raw
	// baseline test scores.
	cal := make([][][]float64, len(p.FEs))
	for q := range p.FEs {
		shifts := p.pooledVoteShifts(q)
		cal[q] = make([][]float64, total)
		for j := 0; j < total; j++ {
			cal[q][j] = dba.Calibrate(p.BaselineScores[q][j], shifts)
		}
	}
	sel := dba.Select(dba.CountVotes(cal), 1)
	order := make([]int, 0, total)
	seen := make(map[int]bool, len(sel))
	for _, h := range sel {
		order = append(order, h.Utt)
		seen[h.Utt] = true
	}
	for j := 0; j < total; j++ {
		if !seen[j] {
			order = append(order, j)
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		j := order[i]
		req := serve.ScoreRequest{
			ID:        fmt.Sprintf("replay-%04d-%s", j, synthlang.LanguageNames[p.TestLabels[j]]),
			FrontEnds: make(map[string]serve.FrontEndInput, len(p.FEs)),
		}
		for q, fe := range p.FEs {
			v := p.Data[q].Test[j]
			req.FrontEnds[fe.Name] = serve.FrontEndInput{Supervector: &serve.Supervector{
				Idx:    v.Idx,
				Val:    v.Val,
				Scaled: true,
			}}
		}
		if err := enc.Encode(&req); err != nil {
			return 0, 0, err
		}
		if seen[j] {
			voted++
		}
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	return n, voted, nil
}
