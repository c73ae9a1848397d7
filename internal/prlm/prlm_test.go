package prlm

import (
	"testing"

	"repro/internal/frontend"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/synthlang"
)

// decodeStrings produces decoded 1-best phone strings for a language
// through a front-end.
func decodeStrings(fe *frontend.FrontEnd, lang *synthlang.Language, split string, n int, durS float64) [][]int {
	root := rng.New(7).SplitString(split).SplitString(lang.Name)
	var out [][]int
	for i := 0; i < n; i++ {
		r := root.Split(uint64(i))
		spk := synthlang.NewSpeaker(r, i)
		u := lang.Sample(r, durS, spk, synthlang.ChannelCTSClean)
		best, _ := fe.Decode(r, u).BestPath()
		out = append(out, best)
	}
	return out
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(10, nil, DefaultConfig()); err == nil {
		t.Fatal("accepted no languages")
	}
	if _, err := Train(10, [][][]int{{}}, DefaultConfig()); err == nil {
		t.Fatal("accepted empty language")
	}
}

func TestScoreShapeAndEmpty(t *testing.T) {
	s, err := Train(4, [][][]int{{{0, 1, 2}}, {{3, 2, 1}}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Score(nil); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty-utterance score %v", got)
	}
	if got := s.Score([]int{0, 1}); len(got) != 2 {
		t.Fatalf("%d scores", len(got))
	}
}

func TestPRLMRecognizesLanguages(t *testing.T) {
	langs := synthlang.Generate(synthlang.DefaultConfig(), 42)[:5]
	fe := frontend.New("HU", frontend.ANNHMM, 59, 3)
	var train [][][]int
	for _, lang := range langs {
		train = append(train, decodeStrings(fe, lang, "train", 15, 20))
	}
	s, err := Train(fe.Set.Size, train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	var trials []metrics.Trial
	for li, lang := range langs {
		for _, seq := range decodeStrings(fe, lang, "test", 8, 20) {
			if s.Classify(seq) == li {
				correct++
			}
			total++
			for k, sc := range s.Score(seq) {
				trials = append(trials, metrics.Trial{Score: sc, Target: k == li})
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.6 {
		t.Fatalf("PRLM accuracy %.2f (chance 0.2)", acc)
	}
	if eer := metrics.EER(trials); eer > 0.3 {
		t.Fatalf("PRLM EER %.2f", eer)
	}
}

func TestTargetModelScoresOwnLanguageHigher(t *testing.T) {
	langs := synthlang.Generate(synthlang.DefaultConfig(), 42)[:3]
	fe := frontend.New("CZ", frontend.ANNHMM, 43, 4)
	var train [][][]int
	for _, lang := range langs {
		train = append(train, decodeStrings(fe, lang, "train", 12, 15))
	}
	s, err := Train(fe.Set.Size, train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Average own-model score must exceed average other-model score.
	var own, other float64
	var nOwn, nOther int
	for li, lang := range langs {
		for _, seq := range decodeStrings(fe, lang, "test", 6, 15) {
			for k, sc := range s.Score(seq) {
				if k == li {
					own += sc
					nOwn++
				} else {
					other += sc
					nOther++
				}
			}
		}
	}
	if own/float64(nOwn) <= other/float64(nOther) {
		t.Fatalf("own-language LLR %.4f not above other %.4f",
			own/float64(nOwn), other/float64(nOther))
	}
}

// No binary links this; the package's tests use it as a referee or
// fixture.

// Classify returns the arg-max language.
func (s *System) Classify(seq []int) int {
	scores := s.Score(seq)
	best := 0
	for k, v := range scores {
		if v > scores[best] {
			best = k
		}
	}
	return best
}
