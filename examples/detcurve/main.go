// detcurve: compute and render a DET curve (the coordinate system of the
// paper's Fig. 3) for a small single-front-end system, as an ASCII plot
// on probit axes plus the EER point.
//
//	go run ./examples/detcurve
package main

import (
	"fmt"
	"log"
	"strings"

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
		seed     = 13
		numLangs = 8
		perLang  = 20
		testPer  = 12
		durS     = 10.0
	)
	langs := synthlang.Generate(synthlang.DefaultConfig(), seed)[:numLangs]
	fe := frontend.New("CZ", frontend.ANNHMM, 43, seed)
	root := rng.New(seed)

	decode := func(split string, lang *synthlang.Language, i int) *sparse.Vector {
		r := root.SplitString(split).SplitString(lang.Name).Split(uint64(i))
		spk := synthlang.NewSpeaker(r, i)
		u := lang.Sample(r, durS, spk, synthlang.ChannelCTSNoisy)
		return fe.Space.Supervector(fe.Decode(r, u))
	}

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

	var trials []metrics.Trial
	for li, lang := range langs {
		for i := 0; i < testPer; i++ {
			v := decode("test", lang, i)
			tf.Apply(v)
			for k, s := range ovr.Scores(v) {
				trials = append(trials, metrics.Trial{Score: s, Target: k == li})
			}
		}
	}

	eer := metrics.EER(trials)
	pts := metrics.DET(trials)
	fmt.Printf("system: %s front-end, %d languages, %gs noisy-channel test\n", fe.Name, numLangs, durS)
	fmt.Printf("EER = %.2f%%   (%d detection trials)\n\n", eer*100, len(trials))

	// ASCII DET plot on probit axes over [0.5%, 50%].
	const size = 31
	lo, hi := metrics.Probit(0.005), metrics.Probit(0.5)
	grid := make([][]byte, size)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", size))
	}
	toCell := func(p float64) int {
		z := metrics.Probit(p)
		c := int((z - lo) / (hi - lo) * float64(size-1))
		if c < 0 {
			c = 0
		}
		if c >= size {
			c = size - 1
		}
		return c
	}
	for _, pt := range pts {
		if pt.Pfa <= 0 || pt.Pmiss <= 0 || pt.Pfa >= 1 || pt.Pmiss >= 1 {
			continue
		}
		grid[size-1-toCell(pt.Pmiss)][toCell(pt.Pfa)] = '*'
	}
	d := toCell(eer)
	grid[size-1-d][d] = 'O'
	fmt.Println("Pmiss (probit 0.5%→50%) ↑, Pfa (probit 0.5%→50%) →;  O marks the EER point")
	for _, row := range grid {
		fmt.Printf("|%s|\n", row)
	}
}
