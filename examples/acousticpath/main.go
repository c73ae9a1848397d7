// acousticpath: the full acoustic pipeline, end to end and for real —
// no simulated decoder anywhere:
//
//	waveform synthesis → PLP features → GMM-HMM phone recognizer
//	(trained here, from scratch) → Viterbi decoding → confusion-network
//	lattice → expected-bigram supervector → SVM language classification.
//
//	go run ./examples/acousticpath
//
// This is the path the paper's systems run on telephone audio; the
// synthetic formant speech stands in for the closed corpora (DESIGN.md).
package main

import (
	"fmt"
	"log"

	"repro/internal/frontend"
	"repro/internal/ngram"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/synthlang"
	"repro/internal/synthspeech"
)

func main() {
	log.SetFlags(0)
	const (
		seed     = 11
		numLangs = 3
		perLang  = 20
		testPer  = 5
		durS     = 10.0
	)
	langs := synthlang.Generate(synthlang.DefaultConfig(), seed)[:numLangs]

	fmt.Println("training a GMM-HMM phone recognizer on synthetic telephone speech…")
	acfg := frontend.DefaultAcousticConfig("demo", frontend.GMMHMM, 20, seed)
	acfg.TrainUtterances = 48
	acfg.UtteranceDurS = 5
	acfg.GaussiansPerState = 4
	fe, err := frontend.TrainAcoustic(acfg, langs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recognizer ready: %d phones × 3 states, PLP(+Δ+ΔΔ) front-end\n", fe.Set.Size)

	synth := synthspeech.New()
	root := rng.New(seed)
	decode := func(split string, lang *synthlang.Language, i int) *sparse.Vector {
		r := root.SplitString(split).SplitString(lang.Name).Split(uint64(i))
		spk := synthlang.NewSpeaker(r, i)
		u := lang.Sample(r, durS, spk, synthlang.ChannelCTSClean)
		wav := synth.Render(r, u) // 8 kHz samples
		lat := fe.DecodeAudio(wav)
		return fe.Space.Supervector(lat)
	}

	var trainX []*sparse.Vector
	var trainY []int
	fmt.Printf("decoding %d training utterances through the acoustic path…\n", numLangs*perLang)
	for li, lang := range langs {
		for i := 0; i < perLang; i++ {
			trainX = append(trainX, decode("train", lang, i))
			trainY = append(trainY, li)
		}
	}
	tf := ngram.EstimateTFLLR(trainX, fe.Space.Dim(), 1e-5)
	for _, v := range trainX {
		tf.Apply(v)
	}
	ovr := svm.TrainOVR(trainX, trainY, numLangs, fe.Space.Dim(), svm.DefaultOptions())

	correct, total := 0, 0
	for li, lang := range langs {
		for i := 0; i < testPer; i++ {
			v := decode("test", lang, i)
			tf.Apply(v)
			if ovr.Classify(v) == li {
				correct++
			}
			total++
		}
	}
	fmt.Printf("language ID over real decoded audio: %d/%d correct (%.0f%%, chance %.0f%%)\n",
		correct, total, 100*float64(correct)/float64(total), 100.0/float64(numLangs))
}
