// acousticvsphonotactic: the two language-recognition families the paper's
// introduction contrasts, run head-to-head on the same synthetic audio:
//
//   - acoustic: SDC features + GMM-UBM with MAP adaptation (the paper's
//     reference [3] family), and
//   - phonotactic: phone recognition → lattice → expected-bigram
//     supervector → SVM (PPRVSM, the paper's baseline).
//
// On this corpus the phonotactic system wins by a wide margin — by
// construction: the synthetic languages share one acoustic phone
// inventory and differ only in *phonotactics*, so language identity flows
// through the channel PPRVSM (and DBA) operates on. See EXPERIMENTS.md.
//
//	go run ./examples/acousticvsphonotactic
package main

import (
	"fmt"
	"log"

	"repro/internal/acousticlr"
	"repro/internal/feats"
	"repro/internal/frontend"
	"repro/internal/ngram"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/synthlang"
	"repro/internal/synthspeech"
)

const (
	seed     = 17
	numLangs = 4
	perLang  = 12
	testPer  = 5
	durS     = 8.0
)

func main() {
	log.SetFlags(0)
	langs := synthlang.Generate(synthlang.DefaultConfig(), 42)[:numLangs]
	ext := feats.NewExtractor(feats.DefaultConfig())
	synth := synthspeech.New()
	root := rng.New(seed)

	// Render every utterance once; both systems consume the same audio.
	type utt struct {
		wav   []float64
		label int
	}
	render := func(split string, lang *synthlang.Language, li, i int) utt {
		r := root.SplitString(split).SplitString(lang.Name).Split(uint64(i))
		spk := synthlang.NewSpeaker(r, i)
		u := lang.Sample(r, durS, spk, synthlang.ChannelCTSClean)
		return utt{wav: synth.Render(r, u), label: li}
	}
	var train, test []utt
	for li, lang := range langs {
		for i := 0; i < perLang; i++ {
			train = append(train, render("train", lang, li, i))
		}
		for i := 0; i < testPer; i++ {
			test = append(test, render("test", lang, li, i))
		}
	}
	fmt.Printf("rendered %d train + %d test utterances (%.0fs each, %d languages)\n\n",
		len(train), len(test), durS, numLangs)

	// --- Acoustic system: SDC + GMM-UBM ---
	fmt.Println("acoustic system: SDC 7-1-3-7 + GMM-UBM (MAP-adapted means)")
	sdc := func(wav []float64) [][]float64 {
		cep := ext.MFCC(wav)
		return acousticlr.ComputeSDC(cep, acousticlr.DefaultSDC())
	}
	framesPerLang := make([][][]float64, numLangs)
	for _, u := range train {
		framesPerLang[u.label] = append(framesPerLang[u.label], sdc(u.wav)...)
	}
	acfg := acousticlr.DefaultConfig()
	acfg.UBMMix = 16
	rec, err := acousticlr.Train(acfg, framesPerLang)
	if err != nil {
		log.Fatal(err)
	}
	acousticCorrect := 0
	for _, u := range test {
		if rec.Classify(sdc(u.wav)) == u.label {
			acousticCorrect++
		}
	}

	// --- Phonotactic system: acoustic phone recognizer + PPRVSM ---
	fmt.Println("phonotactic system: GMM-HMM phone recognizer + expected bigrams + TFLLR SVM")
	fcfg := frontend.DefaultAcousticConfig("fe", frontend.GMMHMM, 20, seed)
	fcfg.TrainUtterances = 40
	fcfg.UtteranceDurS = 5
	fe, err := frontend.TrainAcoustic(fcfg, langs)
	if err != nil {
		log.Fatal(err)
	}
	supervector := func(wav []float64) *sparse.Vector {
		return fe.Space.Supervector(fe.DecodeAudio(wav))
	}
	var trainX []*sparse.Vector
	var trainY []int
	for _, u := range train {
		trainX = append(trainX, supervector(u.wav))
		trainY = append(trainY, u.label)
	}
	tf := ngram.EstimateTFLLR(trainX, fe.Space.Dim(), 1e-5)
	for _, v := range trainX {
		tf.Apply(v)
	}
	ovr := svm.TrainOVR(trainX, trainY, numLangs, fe.Space.Dim(), svm.DefaultOptions())
	phonoCorrect := 0
	for _, u := range test {
		v := supervector(u.wav)
		tf.Apply(v)
		if ovr.Classify(v) == u.label {
			phonoCorrect++
		}
	}

	fmt.Printf("\nresults on %d held-out utterances (chance %.0f%%):\n", len(test), 100.0/numLangs)
	fmt.Printf("  acoustic (GMM-UBM):       %2d/%d  (%.0f%%)\n",
		acousticCorrect, len(test), 100*float64(acousticCorrect)/float64(len(test)))
	fmt.Printf("  phonotactic (PPRVSM):     %2d/%d  (%.0f%%)\n",
		phonoCorrect, len(test), 100*float64(phonoCorrect)/float64(len(test)))
	fmt.Println("\n(the corpus carries language identity phonotactically by design — see EXPERIMENTS.md)")
}
