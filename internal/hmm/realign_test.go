package hmm

import (
	"testing"

	"repro/internal/rng"
)

func TestUniformSegments(t *testing.T) {
	segs := UniformSegments(30, []int{5, 6, 7})
	if len(segs) != 3 {
		t.Fatalf("%d segments", len(segs))
	}
	if segs[0].Start != 0 || segs[2].End != 30 {
		t.Fatal("segments do not span the frames")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start != segs[i-1].End {
			t.Fatal("segments not contiguous")
		}
	}
	if UniformSegments(2, []int{1, 2, 3}) != nil {
		t.Fatal("accepted more phones than frames")
	}
	if UniformSegments(5, nil) != nil {
		t.Fatal("accepted empty transcription")
	}
}

// realignData builds utterances from the toy 3-phone model with *wrong*
// initial segmentations: the true boundaries are at 1/4 and 1/2 of each
// utterance but the flat start assumes thirds.
func realignData(r *rng.RNG, n int) (frames [][][]float64, phones [][]int, segs [][]Segment) {
	for u := 0; u < n; u++ {
		seq := []int{r.Intn(3), r.Intn(3), r.Intn(3)}
		for seq[1] == seq[0] {
			seq[1] = r.Intn(3)
		}
		for seq[2] == seq[1] {
			seq[2] = r.Intn(3)
		}
		// Uneven true durations: 6, 6, 12 frames.
		var fr [][]float64
		durs := []int{6, 6, 12}
		for i, p := range seq {
			for k := 0; k < durs[i]; k++ {
				fr = append(fr, []float64{float64(10*p) + 0.5*r.Norm()})
			}
		}
		frames = append(frames, fr)
		phones = append(phones, seq)
		segs = append(segs, UniformSegments(len(fr), seq))
	}
	return frames, phones, segs
}

func TestRealignImprovesBoundaries(t *testing.T) {
	r := rng.New(1)
	frames, phones, flat := realignData(r, 12)
	emit, segs := Realign(r, 3, frames, phones, flat, 2, 4, 3)
	if emit.NumStates() != 9 {
		t.Fatalf("NumStates = %d", emit.NumStates())
	}
	// After realignment, boundaries should be near the true 6/12 splits,
	// not the uniform 8/16 flat start.
	closer := 0
	for i, s := range segs {
		if len(s) != 3 {
			continue
		}
		// True first boundary at 6; flat start put it at 8.
		trueErr := abs(s[0].End - 6)
		flatErr := abs(flat[i][0].End - 6)
		if trueErr <= flatErr {
			closer++
		}
	}
	if closer < 8 {
		t.Fatalf("realignment moved only %d/12 first boundaries toward truth", closer)
	}
	// The refined model must decode the toy phones correctly.
	m := NewModel(3, emit, 5)
	testSeq := []int{0, 2, 1}
	testFrames := toySignal(rng.New(2), testSeq, 8)
	var got []int
	for _, s := range m.Decode(testFrames) {
		got = append(got, s.Phone)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("refined model decoded %v", got)
	}
}

func TestRealignTerminatesOnStableAlignment(t *testing.T) {
	// With perfect initial segments, realignment converges immediately
	// and must not corrupt them.
	r := rng.New(3)
	var frames [][][]float64
	var phones [][]int
	var segs [][]Segment
	for u := 0; u < 6; u++ {
		seq := []int{u % 3, (u + 1) % 3}
		var fr [][]float64
		var sg []Segment
		for i, p := range seq {
			start := len(fr)
			for k := 0; k < 10; k++ {
				fr = append(fr, []float64{float64(10*p) + 0.3*r.Norm()})
			}
			sg = append(sg, Segment{Phone: p, Start: start, End: len(fr)})
			_ = i
		}
		frames = append(frames, fr)
		phones = append(phones, seq)
		segs = append(segs, sg)
	}
	_, refined := Realign(r, 3, frames, phones, segs, 2, 3, 4)
	for i := range refined {
		if len(refined[i]) != len(segs[i]) {
			t.Fatal("realignment changed segment counts on clean data")
		}
		for j := range refined[i] {
			if refined[i][j].Phone != segs[i][j].Phone {
				t.Fatal("realignment changed phone identities")
			}
			if abs(refined[i][j].End-segs[i][j].End) > 2 {
				t.Fatalf("boundary drifted: %v vs %v", refined[i][j], segs[i][j])
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// No binary links this; the package's tests use it as a referee or
// fixture.

// UniformSegments builds the flat-start segmentation: each utterance's
// frames are split evenly across its transcription's phones.
func UniformSegments(numFrames int, phoneSeq []int) []Segment {
	n := len(phoneSeq)
	if n == 0 || numFrames < n {
		return nil
	}
	segs := make([]Segment, n)
	for i, p := range phoneSeq {
		segs[i] = Segment{
			Phone: p,
			Start: i * numFrames / n,
			End:   (i + 1) * numFrames / n,
		}
	}
	return segs
}
