// Package scorefile reads and writes LRE-style detection score files —
// one line per (model language, test utterance) trial — so scores from
// this system can be exchanged with external scoring tools (and vice
// versa: externally produced scores can be evaluated with this
// repository's EER/Cavg/DET code).
//
// The format is tab-separated with a header line:
//
//	system	duration_s	model	segment	truth	score
//	baseline	30	farsi	seg00042	farsi	1.2345
//
// "truth" may be "-" when unknown (open evaluation); such trials load
// with Truth = -1.
package scorefile

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// Record is one trial line.
type Record struct {
	System    string
	DurationS float64
	// Model and Truth are language names; Segment identifies the test
	// utterance.
	Model   string
	Segment string
	Truth   string // "-" when unknown
	Score   float64
}

// Write emits records with the header.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "system\tduration_s\tmodel\tsegment\ttruth\tscore"); err != nil {
		return err
	}
	for _, r := range records {
		truth := r.Truth
		if truth == "" {
			truth = "-"
		}
		if _, err := fmt.Fprintf(bw, "%s\t%g\t%s\t%s\t%s\t%.8g\n",
			r.System, r.DurationS, r.Model, r.Segment, truth, r.Score); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a score file, validating the header and every line.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("scorefile: empty input")
	}
	header := strings.TrimSpace(sc.Text())
	if header != "system\tduration_s\tmodel\tsegment\ttruth\tscore" {
		return nil, fmt.Errorf("scorefile: unexpected header %q", header)
	}
	var out []Record
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 6 {
			return nil, fmt.Errorf("scorefile: line %d has %d fields", lineNo, len(parts))
		}
		dur, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("scorefile: line %d duration: %w", lineNo, err)
		}
		score, err := strconv.ParseFloat(parts[5], 64)
		if err != nil {
			return nil, fmt.Errorf("scorefile: line %d score: %w", lineNo, err)
		}
		out = append(out, Record{
			System:    parts[0],
			DurationS: dur,
			Model:     parts[2],
			Segment:   parts[3],
			Truth:     parts[4],
			Score:     score,
		})
	}
	return out, sc.Err()
}

// FromScoreMatrix flattens a score matrix into records. labels maps test
// index → true-language index; names maps language index → name; segIDs
// maps test index → segment identifier (generated when nil).
func FromScoreMatrix(system string, durationS float64, scores [][]float64,
	labels []int, names []string, segIDs []string) []Record {

	var out []Record
	for j, row := range scores {
		if row == nil {
			continue
		}
		seg := fmt.Sprintf("seg%05d", j)
		if segIDs != nil {
			seg = segIDs[j]
		}
		truth := "-"
		if labels != nil {
			truth = names[labels[j]]
		}
		for k, s := range row {
			out = append(out, Record{
				System:    system,
				DurationS: durationS,
				Model:     names[k],
				Segment:   seg,
				Truth:     truth,
				Score:     s,
			})
		}
	}
	return out
}

// ToPairTrials converts labeled records into metric trials. Records with
// unknown truth are skipped; nameIndex maps language names to indices. A
// NaN or infinite score is refused: the metrics take finite scores only.
func ToPairTrials(records []Record, nameIndex map[string]int) ([]metrics.PairTrial, error) {
	var out []metrics.PairTrial
	for i, r := range records {
		if r.Truth == "-" || r.Truth == "" {
			continue
		}
		model, ok := nameIndex[r.Model]
		if !ok {
			return nil, fmt.Errorf("scorefile: record %d has unknown model language %q", i, r.Model)
		}
		truth, ok := nameIndex[r.Truth]
		if !ok {
			return nil, fmt.Errorf("scorefile: record %d has unknown truth language %q", i, r.Truth)
		}
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
			return nil, fmt.Errorf("scorefile: record %d (segment %q, model %q) has non-finite score %v", i, r.Segment, r.Model, r.Score)
		}
		out = append(out, metrics.PairTrial{Model: model, True: truth, Score: r.Score})
	}
	return out, nil
}
