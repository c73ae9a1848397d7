// Quickstart: the smallest complete phonotactic language-recognition
// pipeline — PPRVSM with a single front-end on a handful of languages.
//
//	go run ./examples/quickstart
//
// It generates a synthetic corpus, decodes each utterance into a phone
// lattice with the Hungarian ANN-HMM front-end, builds TFLLR-scaled
// expected-bigram supervectors, trains one-versus-rest SVM language
// models, and reports test accuracy and EER.
package main

import (
	"fmt"
	"log"

	"repro/internal/frontend"
	"repro/internal/metrics"
	"repro/internal/ngram"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/synthlang"
)

func main() {
	log.SetFlags(0)
	const (
		seed     = 7
		numLangs = 5
		perLang  = 25
		testPer  = 10
		durS     = 10
	)
	langs := synthlang.Generate(synthlang.DefaultConfig(), seed)[:numLangs]
	fe := frontend.New("HU", frontend.ANNHMM, 59, seed)
	root := rng.New(seed)

	decode := func(split string, lang *synthlang.Language, i int) *sparse.Vector {
		r := root.SplitString(split).SplitString(lang.Name).Split(uint64(i))
		spk := synthlang.NewSpeaker(r, i)
		u := lang.Sample(r, durS, spk, synthlang.ChannelCTSClean)
		return fe.Space.Supervector(fe.Decode(r, u))
	}

	// Training supervectors.
	var trainX []*sparse.Vector
	var trainY []int
	for li, lang := range langs {
		for i := 0; i < perLang; i++ {
			trainX = append(trainX, decode("train", lang, i))
			trainY = append(trainY, li)
		}
	}
	// TFLLR background from the training set (Eq. 5).
	tf := ngram.EstimateTFLLR(trainX, fe.Space.Dim(), 1e-5)
	for _, v := range trainX {
		tf.Apply(v)
	}

	fmt.Printf("training %d one-vs-rest SVMs on %d utterances (dim %d)…\n",
		numLangs, len(trainX), fe.Space.Dim())
	ovr := svm.TrainOVR(trainX, trainY, numLangs, fe.Space.Dim(), svm.DefaultOptions())

	// Test.
	var trials []metrics.Trial
	correct, total := 0, 0
	for li, lang := range langs {
		for i := 0; i < testPer; i++ {
			v := decode("test", lang, i)
			tf.Apply(v)
			scores := ovr.Scores(v)
			best := 0
			for k, s := range scores {
				if s > scores[best] {
					best = k
				}
				trials = append(trials, metrics.Trial{Score: s, Target: k == li})
			}
			if best == li {
				correct++
			}
			total++
		}
	}
	fmt.Printf("test accuracy: %d/%d (%.1f%%)\n", correct, total, 100*float64(correct)/float64(total))
	fmt.Printf("pooled detection EER: %.2f%%\n", metrics.EER(trials)*100)
	fmt.Println("languages:", names(langs))
}

func names(langs []*synthlang.Language) []string {
	out := make([]string, len(langs))
	for i, l := range langs {
		out[i] = l.Name
	}
	return out
}
