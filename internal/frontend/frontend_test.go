package frontend

import (
	"math"
	"testing"

	"repro/internal/align"
	"repro/internal/phones"
	"repro/internal/rng"
	"repro/internal/synthlang"
)

func testLangs() []*synthlang.Language {
	return synthlang.Generate(synthlang.DefaultConfig(), 42)
}

func TestStandardSix(t *testing.T) {
	fes := StandardSix(7)
	if len(fes) != 6 {
		t.Fatalf("got %d front-ends", len(fes))
	}
	wantSizes := map[string]int{"HU": 59, "RU": 50, "CZ": 43, "EN-DNN": 47, "MA": 64, "EN-GMM": 47}
	wantKinds := map[string]Kind{"HU": ANNHMM, "RU": ANNHMM, "CZ": ANNHMM, "EN-DNN": DNNHMM, "MA": GMMHMM, "EN-GMM": GMMHMM}
	for _, fe := range fes {
		if fe.Set.Size != wantSizes[fe.Name] {
			t.Errorf("%s inventory %d, want %d", fe.Name, fe.Set.Size, wantSizes[fe.Name])
		}
		if fe.Kind != wantKinds[fe.Name] {
			t.Errorf("%s kind %v", fe.Name, fe.Kind)
		}
		if err := fe.Set.Validate(); err != nil {
			t.Errorf("%s: %v", fe.Name, err)
		}
	}
}

func TestKindString(t *testing.T) {
	if GMMHMM.String() != "GMM-HMM" || DNNHMM.String() != "DNN-HMM" || ANNHMM.String() != "ANN-HMM" {
		t.Fatal("Kind.String wrong")
	}
}

func TestDecodeProducesValidLattice(t *testing.T) {
	langs := testLangs()
	fe := New("HU", ANNHMM, 59, 1)
	r := rng.New(2)
	spk := synthlang.NewSpeaker(r, 0)
	u := langs[0].Sample(r, 10, spk, synthlang.ChannelCTSClean)
	l := fe.Decode(r, u)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge phones must be within the front-end inventory.
	for _, e := range l.Edges {
		if e.Phone < 0 || e.Phone >= fe.Set.Size {
			t.Fatalf("edge phone %d out of inventory", e.Phone)
		}
	}
}

func TestDecodeDeterministicGivenStream(t *testing.T) {
	langs := testLangs()
	fe := New("CZ", ANNHMM, 43, 3)
	mk := func() int {
		r := rng.New(9)
		spk := synthlang.NewSpeaker(r, 0)
		u := langs[1].Sample(r, 5, spk, synthlang.ChannelCTSClean)
		return fe.Decode(r, u).NumEdges()
	}
	if mk() != mk() {
		t.Fatal("decoding not deterministic")
	}
}

func TestDecodeLengthTracksDuration(t *testing.T) {
	langs := testLangs()
	fe := New("RU", ANNHMM, 50, 4)
	r := rng.New(5)
	spk := synthlang.NewSpeaker(r, 0)
	short := fe.Decode(r, langs[2].Sample(r, 3, spk, synthlang.ChannelCTSClean))
	long := fe.Decode(r, langs[2].Sample(r, 30, spk, synthlang.ChannelCTSClean))
	if long.NumNodes < 5*short.NumNodes {
		t.Fatalf("30s lattice (%d nodes) not much longer than 3s (%d)", long.NumNodes, short.NumNodes)
	}
}

// decodeAccuracy measures edit-distance phone accuracy of the simulated
// decoder's best path against the mapped reference.
func decodeAccuracy(fe *FrontEnd, ch synthlang.Channel, seed uint64) float64 {
	langs := testLangs()
	r := rng.New(seed)
	spk := synthlang.SpeakerProfile{Rate: 1, SubstitutionProb: 0, PitchHz: 150}
	var agg align.Counts
	for trial := 0; trial < 10; trial++ {
		u := langs[trial%len(langs)].Sample(r, 10, spk, ch)
		l := fe.Decode(r, u)
		best, _ := l.BestPath()
		ref := make([]int, 0, len(u.Segments))
		for _, seg := range u.Segments {
			ref = append(ref, fe.Set.Map(seg.Phone))
		}
		c := align.Align(ref, best)
		agg.Hits += c.Hits
		agg.Subs += c.Subs
		agg.Ins += c.Ins
		agg.Dels += c.Dels
	}
	return agg.Accuracy()
}

func TestChannelMismatchDegradesDecoding(t *testing.T) {
	fe := New("EN-DNN", DNNHMM, 47, 6)
	clean := decodeAccuracy(fe, synthlang.ChannelCTSClean, 10)
	voa := decodeAccuracy(fe, synthlang.ChannelVOA, 10)
	if voa >= clean {
		t.Fatalf("VOA accuracy %v not worse than clean %v", voa, clean)
	}
	if clean < 0.5 {
		t.Fatalf("clean accuracy %v implausibly low", clean)
	}
}

func TestModelFamilyQualityOrdering(t *testing.T) {
	dnn := New("X-DNN", DNNHMM, 47, 7)
	gmmFE := New("X-GMM", GMMHMM, 47, 7)
	accDNN := decodeAccuracy(dnn, synthlang.ChannelCTSClean, 11)
	accGMM := decodeAccuracy(gmmFE, synthlang.ChannelCTSClean, 11)
	if accDNN <= accGMM {
		t.Fatalf("DNN accuracy %v not better than GMM %v", accDNN, accGMM)
	}
}

func TestFrontEndsMakeDifferentErrors(t *testing.T) {
	// Two front-ends with the same inventory size but different seeds
	// should produce different lattices on the same utterance.
	langs := testLangs()
	a := New("A", ANNHMM, 47, 100)
	b := New("B", ANNHMM, 47, 200)
	r1, r2 := rng.New(3), rng.New(3)
	spk := synthlang.NewSpeaker(rng.New(4), 0)
	u := langs[0].Sample(rng.New(5), 10, spk, synthlang.ChannelCTSClean)
	la := a.Decode(r1, u)
	lb := b.Decode(r2, u)
	pa, _ := la.BestPath()
	pb, _ := lb.BestPath()
	same := 0
	n := len(pa)
	if len(pb) < n {
		n = len(pb)
	}
	for i := 0; i < n; i++ {
		if pa[i] == pb[i] {
			same++
		}
	}
	if n > 0 && same == n {
		t.Fatal("independent front-ends decoded identically")
	}
}

func TestSupervector(t *testing.T) {
	langs := testLangs()
	fe := New("MA", GMMHMM, 64, 8)
	r := rng.New(6)
	spk := synthlang.NewSpeaker(r, 0)
	u := langs[0].Sample(r, 10, spk, synthlang.ChannelCTSClean)
	v := fe.Space.Supervector(fe.Decode(r, u))
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() == 0 {
		t.Fatal("empty supervector")
	}
	// Unigram + bigram blocks each sum to ~1.
	var total float64
	for _, val := range v.Val {
		total += val
	}
	if math.Abs(total-2) > 1e-6 {
		t.Fatalf("supervector mass = %v, want 2 (two order blocks)", total)
	}
}

func TestDecodeUltraShortUtterance(t *testing.T) {
	fe := New("HU", ANNHMM, 59, 9)
	u := &synthlang.Utterance{
		Language: 0,
		Segments: []synthlang.Segment{{Phone: 1, DurMs: 50}},
		Speaker:  synthlang.SpeakerProfile{Rate: 1, PitchHz: 120},
		Channel:  synthlang.ChannelCTSClean,
	}
	// Even with deletion, a lattice must come back.
	for trial := 0; trial < 50; trial++ {
		l := fe.Decode(rng.New(uint64(trial)), u)
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSupervectorsSeparateLanguages(t *testing.T) {
	// Average supervectors of two languages should be farther apart than
	// two halves of the same language — the signal VSM classification
	// rests on.
	langs := testLangs()
	fe := New("HU", ANNHMM, 59, 10)
	root := rng.New(11)
	mean := func(lang *synthlang.Language, n int, label string) []float64 {
		out := make([]float64, fe.Space.Dim())
		for i := 0; i < n; i++ {
			r := root.SplitString(label).Split(uint64(i))
			spk := synthlang.NewSpeaker(r, i)
			u := lang.Sample(r, 30, spk, synthlang.ChannelCTSClean)
			v := fe.Space.Supervector(fe.Decode(r, u))
			v.AxpyDense(1/float64(n), out)
		}
		return out
	}
	a1 := mean(langs[0], 8, "a1")
	a2 := mean(langs[0], 8, "a2")
	b := mean(langs[9], 8, "b")
	dist := func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	within := dist(a1, a2)
	between := dist(a1, b)
	if between <= within {
		t.Fatalf("between-language distance %v not larger than within %v", between, within)
	}
}

func TestPhoneSetsMatchPaperInventories(t *testing.T) {
	// Paper: CZ 43, HU 59, RU 50 (BUT); EN 47 (incl. noise/sp/sil); MA 64.
	if phones.UniversalSize != 64 {
		t.Fatal("universal size drifted")
	}
}
