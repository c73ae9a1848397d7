package scorefile

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func sample() []Record {
	return []Record{
		{System: "baseline", DurationS: 30, Model: "farsi", Segment: "seg1", Truth: "farsi", Score: 1.25},
		{System: "baseline", DurationS: 30, Model: "hindi", Segment: "seg1", Truth: "farsi", Score: -0.5},
		{System: "dba", DurationS: 3, Model: "farsi", Segment: "seg2", Truth: "-", Score: 0},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(got) != len(want) {
		t.Fatalf("%d records", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestReadRejectsBadHeader(t *testing.T) {
	if _, err := Read(strings.NewReader("foo\tbar\n")); err == nil {
		t.Fatal("accepted bad header")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("accepted empty input")
	}
}

func TestReadRejectsBadLines(t *testing.T) {
	header := "system\tduration_s\tmodel\tsegment\ttruth\tscore\n"
	if _, err := Read(strings.NewReader(header + "a\tb\n")); err == nil {
		t.Fatal("accepted short line")
	}
	if _, err := Read(strings.NewReader(header + "s\tx\tm\tseg\tt\t1.0\n")); err == nil {
		t.Fatal("accepted non-numeric duration")
	}
	if _, err := Read(strings.NewReader(header + "s\t30\tm\tseg\tt\tx\n")); err == nil {
		t.Fatal("accepted non-numeric score")
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()[:1]); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\n\n")
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d records", len(got))
	}
}

func TestReadEmptyInputError(t *testing.T) {
	_, err := Read(strings.NewReader(""))
	if err == nil {
		t.Fatal("accepted empty input")
	}
	if !strings.Contains(err.Error(), "empty input") {
		t.Fatalf("empty input error %q does not say so", err)
	}
}

func TestReadHeaderOnly(t *testing.T) {
	recs, err := Read(strings.NewReader("system\tduration_s\tmodel\tsegment\ttruth\tscore\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("header-only file yielded %d records", len(recs))
	}
}

func TestReadTrailingNewlineAndNoFinalNewline(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	// Extra trailing newlines must be harmless.
	withTrailing := buf.String() + "\n"
	recs, err := Read(strings.NewReader(withTrailing))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sample()) {
		t.Fatalf("trailing newline changed record count: %d", len(recs))
	}
	// A file whose last line lacks the final newline must parse too.
	noFinal := strings.TrimSuffix(buf.String(), "\n")
	recs, err = Read(strings.NewReader(noFinal))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sample()) {
		t.Fatalf("missing final newline changed record count: %d", len(recs))
	}
}

func TestReadMalformedLineReportsLineNumber(t *testing.T) {
	header := "system\tduration_s\tmodel\tsegment\ttruth\tscore\n"
	good := "s\t30\tm\tseg\tt\t1.0\n"
	cases := []struct {
		name  string
		input string
		line  string // the line number the error must name
	}{
		{"wrong field count", header + good + "only\ttwo\n", "line 3"},
		{"bad duration", header + good + good + "s\tNaN?\tm\tseg\tt\t1\n", "line 4"},
		{"bad score", header + "s\t30\tm\tseg\tt\tbogus\n", "line 2"},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.input))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.line) {
			t.Fatalf("%s: error %q does not name %s", tc.name, err, tc.line)
		}
	}
}

func TestFromScoreMatrix(t *testing.T) {
	scores := [][]float64{{1, -1}, {0.5, 0.2}}
	labels := []int{0, 1}
	names := []string{"farsi", "hindi"}
	recs := FromScoreMatrix("sys", 10, scores, labels, names, nil)
	if len(recs) != 4 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Model != "farsi" || recs[0].Truth != "farsi" || recs[0].Score != 1 {
		t.Fatalf("first record %+v", recs[0])
	}
	if recs[3].Model != "hindi" || recs[3].Truth != "hindi" {
		t.Fatalf("last record %+v", recs[3])
	}
	// Unlabeled variant.
	anon := FromScoreMatrix("sys", 10, scores, nil, names, []string{"a", "b"})
	if anon[0].Truth != "-" || anon[0].Segment != "a" {
		t.Fatalf("anon record %+v", anon[0])
	}
}

func TestToPairTrialsAndEER(t *testing.T) {
	// Round trip all the way into the metrics package.
	scores := [][]float64{{2, -2}, {-2, 2}}
	labels := []int{0, 1}
	names := []string{"farsi", "hindi"}
	recs := FromScoreMatrix("sys", 30, scores, labels, names, nil)
	idx := map[string]int{"farsi": 0, "hindi": 1}
	trials, err := ToPairTrials(recs, idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 4 {
		t.Fatalf("%d trials", len(trials))
	}
	if eer := metrics.EER(metrics.PairTrialsToDetection(trials)); math.Abs(eer) > 1e-12 {
		t.Fatalf("EER = %v for perfect scores", eer)
	}
}

func TestToPairTrialsUnknownLanguage(t *testing.T) {
	recs := []Record{{Model: "klingon", Truth: "farsi", Score: 1}}
	if _, err := ToPairTrials(recs, map[string]int{"farsi": 0}); err == nil {
		t.Fatal("accepted unknown model language")
	}
	recs2 := []Record{{Model: "farsi", Truth: "klingon", Score: 1}}
	if _, err := ToPairTrials(recs2, map[string]int{"farsi": 0}); err == nil {
		t.Fatal("accepted unknown truth language")
	}
}

func TestToPairTrialsRefusesNonFiniteScores(t *testing.T) {
	for _, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		recs := []Record{
			{Model: "farsi", Segment: "seg1", Truth: "farsi", Score: 1},
			{Model: "hindi", Segment: "seg2", Truth: "farsi", Score: score},
		}
		_, err := ToPairTrials(recs, map[string]int{"farsi": 0, "hindi": 1})
		if err == nil {
			t.Fatalf("score %v: accepted", score)
		}
		for _, want := range []string{"record 1", `"seg2"`, `"hindi"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("score %v: error %q does not name %s", score, err, want)
			}
		}
	}
}

func TestToPairTrialsSkipsUnlabeled(t *testing.T) {
	recs := []Record{
		{Model: "farsi", Truth: "-", Score: 1},
		{Model: "farsi", Truth: "farsi", Score: 1},
	}
	trials, err := ToPairTrials(recs, map[string]int{"farsi": 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 1 {
		t.Fatalf("%d trials", len(trials))
	}
}
