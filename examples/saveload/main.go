// saveload: the train-once / score-many production workflow — train a
// PPRVSM subsystem, persist every artifact (SVM language models, TFLLR
// scaler, phone LM) to disk, reload them in a fresh "scoring process", and
// verify bit-identical scores; finally export the scores as an LRE-style
// score file and re-evaluate it with cmd/evalscores-compatible parsing.
//
//	go run ./examples/saveload
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/frontend"
	"repro/internal/metrics"
	"repro/internal/ngram"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/scorefile"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/synthlang"
)

func main() {
	log.SetFlags(0)
	const (
		seed     = 21
		numLangs = 6
		perLang  = 20
		testPer  = 8
		durS     = 10.0
	)
	dir, err := os.MkdirTemp("", "saveload")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	langs := synthlang.Generate(synthlang.DefaultConfig(), 42)[:numLangs]
	fe := frontend.New("HU", frontend.ANNHMM, 59, seed)
	root := rng.New(seed)
	decode := func(split string, lang *synthlang.Language, i int) *sparse.Vector {
		r := root.SplitString(split).SplitString(lang.Name).Split(uint64(i))
		spk := synthlang.NewSpeaker(r, i)
		u := lang.Sample(r, durS, spk, synthlang.ChannelCTSClean)
		return fe.Space.Supervector(fe.Decode(r, u))
	}

	// --- Training process ---
	var trainX []*sparse.Vector
	var trainY []int
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

	ovrPath := filepath.Join(dir, "models.gob")
	tfPath := filepath.Join(dir, "tfllr.gob")
	must(persist.Save(ovrPath, ovr))
	must(persist.Save(tfPath, tf))
	fmt.Printf("trained and saved: %d language models (dim %d) + TFLLR scaler\n",
		numLangs, fe.Space.Dim())

	// --- Scoring process (fresh state, loads everything from disk) ---
	var loadedOVR svm.OneVsRest
	var loadedTF ngram.TFLLR
	must(persist.Load(ovrPath, &loadedOVR))
	must(persist.Load(tfPath, &loadedTF))
	fmt.Println("reloaded models in a fresh scorer")

	var records []scorefile.Record
	names := synthlang.LanguageNames[:numLangs]
	identical := true
	var trials []metrics.Trial
	for li, lang := range langs {
		for i := 0; i < testPer; i++ {
			v := decode("test", lang, i)
			loadedTF.Apply(v)
			scores := loadedOVR.Scores(v)
			// Cross-check against the in-memory models.
			orig := ovr.Scores(v)
			for k := range scores {
				if scores[k] != orig[k] {
					identical = false
				}
				trials = append(trials, metrics.Trial{Score: scores[k], Target: k == li})
			}
			records = append(records, scorefile.FromScoreMatrix(
				"hu-pprvsm", durS, [][]float64{scores}, []int{li}, names,
				[]string{fmt.Sprintf("%s-%02d", lang.Name, i)})...)
		}
	}
	fmt.Printf("loaded scores bit-identical to training process: %v\n", identical)
	fmt.Printf("test EER: %.2f%%\n", metrics.EER(trials)*100)

	scorePath := filepath.Join(dir, "scores.tsv")
	f, err := os.Create(scorePath)
	must(err)
	must(scorefile.Write(f, records))
	must(f.Close())

	// Re-read and re-evaluate, as an external scorer would.
	f2, err := os.Open(scorePath)
	must(err)
	defer f2.Close()
	back, err := scorefile.Read(f2)
	must(err)
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	pairs, err := scorefile.ToPairTrials(back, idx)
	must(err)
	fmt.Printf("score file round trip: %d records, EER from file %.2f%%\n",
		len(back), metrics.EER(metrics.PairTrialsToDetection(pairs))*100)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
