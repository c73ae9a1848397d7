package lm

import (
	"math"
	"testing"

	"repro/internal/phones"
	"repro/internal/rng"
	"repro/internal/synthlang"
)

// sampleSequences draws phone strings from a synthetic language.
func sampleSequences(seed uint64, n int, durS float64) [][]int {
	langs := synthlang.Generate(synthlang.DefaultConfig(), 42)
	r := rng.New(seed)
	var out [][]int
	for i := 0; i < n; i++ {
		spk := synthlang.NewSpeaker(r, i)
		u := langs[0].Sample(r, durS, spk, synthlang.ChannelCTSClean)
		out = append(out, u.PhoneIDs())
	}
	return out
}

func TestKneserNeyValid(t *testing.T) {
	seqs := sampleSequences(1, 20, 10)
	m := TrainKneserNey(phones.UniversalSize, seqs, 0.75)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdditiveValid(t *testing.T) {
	seqs := sampleSequences(2, 20, 10)
	m := TrainAdditive(phones.UniversalSize, seqs, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPerplexityBeatsUniform(t *testing.T) {
	train := sampleSequences(3, 30, 10)
	test := sampleSequences(4, 10, 10)
	m := TrainKneserNey(phones.UniversalSize, train, 0.75)
	pp := m.Perplexity(test)
	uniform := float64(phones.UniversalSize)
	if pp >= uniform {
		t.Fatalf("KN perplexity %v not below uniform %v", pp, uniform)
	}
}

func TestKneserNeyBeatsAdditiveOnHeldOut(t *testing.T) {
	// The KN advantage shows on skewed data where histories have few
	// successors: add-1 bleeds mass onto the (many) unseen successors,
	// while KN discounts lightly and backs off by continuation diversity.
	// (On the Dirichlet-generated synthlang corpora add-1 is close to the
	// Bayes estimator, so this test uses a sparse deterministic-ish
	// Markov chain instead.)
	const vocab = 50
	gen := func(seed uint64, n, length int) [][]int {
		r := rng.New(seed)
		var out [][]int
		for i := 0; i < n; i++ {
			seq := make([]int, length)
			seq[0] = r.Intn(vocab)
			for t := 1; t < length; t++ {
				prev := seq[t-1]
				// Three fixed successors per phone, heavily skewed.
				succ := [3]int{(prev * 7) % vocab, (prev*7 + 1) % vocab, (prev*7 + 13) % vocab}
				u := r.Float64()
				switch {
				case u < 0.7:
					seq[t] = succ[0]
				case u < 0.95:
					seq[t] = succ[1]
				default:
					seq[t] = succ[2]
				}
			}
			out = append(out, seq)
		}
		return out
	}
	train := gen(5, 6, 60)
	test := gen(6, 20, 60)
	kn := TrainKneserNey(vocab, train, 0.75)
	add := TrainAdditive(vocab, train, 1)
	ppKN := kn.Perplexity(test)
	ppAdd := add.Perplexity(test)
	if ppKN >= ppAdd {
		t.Fatalf("KN perplexity %v not better than add-1 %v", ppKN, ppAdd)
	}
}

func TestTrainPerplexityBelowHeldOut(t *testing.T) {
	train := sampleSequences(7, 30, 10)
	test := sampleSequences(8, 10, 10)
	m := TrainKneserNey(phones.UniversalSize, train, 0.75)
	if m.Perplexity(train) >= m.Perplexity(test) {
		t.Fatal("train perplexity should be below held-out perplexity")
	}
}

func TestUnseenHistoryBacksOff(t *testing.T) {
	// Train on a tiny corpus so some histories are unseen; probabilities
	// there must still be a valid distribution.
	seqs := [][]int{{0, 1, 2, 0, 1}}
	m := TrainKneserNey(8, seqs, 0.75)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// History 7 never occurred: its row must be finite everywhere.
	for b := 0; b < 8; b++ {
		if math.IsInf(m.LogProb(7, b), 0) || math.IsNaN(m.LogProb(7, b)) {
			t.Fatalf("unseen history gave %v", m.LogProb(7, b))
		}
	}
}

func TestFrequentBigramMoreProbable(t *testing.T) {
	// 0→1 occurs often, 0→2 once: P(1|0) > P(2|0).
	seqs := [][]int{{0, 1, 0, 1, 0, 1, 0, 1, 0, 2}}
	m := TrainKneserNey(3, seqs, 0.75)
	if m.LogProb(0, 1) <= m.LogProb(0, 2) {
		t.Fatal("frequent bigram not more probable")
	}
}

func TestPerplexityEmpty(t *testing.T) {
	m := TrainAdditive(4, nil, 1)
	if !math.IsInf(m.Perplexity(nil), 1) {
		t.Fatal("perplexity of empty test set should be +Inf")
	}
}

func TestOutOfRangePhonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accepted out-of-range phone")
		}
	}()
	TrainAdditive(4, [][]int{{0, 9}}, 1)
}

// No binary links these; the package's tests use them as referees or
// fixtures.

// TrainAdditive estimates a bigram model with add-alpha smoothing — the
// baseline the Kneser–Ney perplexity tests compare against.
func TrainAdditive(numPhones int, sequences [][]int, alpha float64) *Bigram {
	if alpha <= 0 {
		alpha = 1
	}
	c := newCounts(numPhones)
	c.add(sequences)
	m := &Bigram{
		NumPhones: numPhones,
		logProb:   make([][]float64, numPhones),
		logInit:   make([]float64, numPhones),
	}
	for a := 0; a < numPhones; a++ {
		row := make([]float64, numPhones)
		var rowTotal float64
		for b := 0; b < numPhones; b++ {
			rowTotal += c.bi[a][b]
		}
		for b := 0; b < numPhones; b++ {
			row[b] = math.Log((c.bi[a][b] + alpha) / (rowTotal + alpha*float64(numPhones)))
		}
		m.logProb[a] = row
	}
	var initTotal float64
	for _, v := range c.initCnt {
		initTotal += v
	}
	for b := 0; b < numPhones; b++ {
		m.logInit[b] = math.Log((c.initCnt[b] + 1) / (initTotal + float64(numPhones)))
	}
	return m
}

// Perplexity computes the per-phone perplexity of the model on held-out
// phone strings.
func (m *Bigram) Perplexity(sequences [][]int) float64 {
	var logSum float64
	var n int
	for _, seq := range sequences {
		for i, p := range seq {
			if i == 0 {
				logSum += m.LogInit(p)
			} else {
				logSum += m.LogProb(seq[i-1], p)
			}
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp(-logSum / float64(n))
}
