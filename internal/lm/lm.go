// Package lm implements smoothed phone N-gram language models — the
// counterpart of the SRILM toolkit in the paper's pipeline (Section 4.1
// uses SRILM/RNNLM when turning decoded phone streams into statistics, and
// the HVite decoder consumes a phone-level LM). Two estimators are
// provided: interpolated Kneser–Ney (the standard for N-gram smoothing)
// and additive (Laplace) smoothing as the simple baseline. The bigram
// models plug into the HMM decoder's phone-transition matrix and improve
// phone accuracy on matched data.
package lm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/gobwire"
)

// Bigram is a smoothed bigram language model over a phone inventory.
type Bigram struct {
	NumPhones int
	// logProb[a][b] = log P(b|a).
	logProb [][]float64
	// logInit[b] = log P(b | <s>).
	logInit []float64
}

// LogProb returns log P(b|a).
func (m *Bigram) LogProb(a, b int) float64 { return m.logProb[a][b] }

// LogInit returns log P(b|<s>).
func (m *Bigram) LogInit(b int) float64 { return m.logInit[b] }

// counts accumulates bigram statistics.
type counts struct {
	numPhones int
	bi        [][]float64
	initCnt   []float64
	// continuation[b] = number of distinct predecessors of b (KN).
	continuation []float64
	// followers[a] = number of distinct successors of a (KN).
	followers []float64
}

func newCounts(numPhones int) *counts {
	c := &counts{
		numPhones:    numPhones,
		bi:           make([][]float64, numPhones),
		initCnt:      make([]float64, numPhones),
		continuation: make([]float64, numPhones),
		followers:    make([]float64, numPhones),
	}
	for a := range c.bi {
		c.bi[a] = make([]float64, numPhones)
	}
	return c
}

func (c *counts) add(sequences [][]int) {
	for _, seq := range sequences {
		for i, p := range seq {
			if p < 0 || p >= c.numPhones {
				panic(fmt.Sprintf("lm: phone %d out of range", p))
			}
			if i == 0 {
				c.initCnt[p]++
			} else {
				a := seq[i-1]
				if c.bi[a][p] == 0 {
					c.continuation[p]++
					c.followers[a]++
				}
				c.bi[a][p]++
			}
		}
	}
}

// TrainKneserNey estimates an interpolated Kneser–Ney bigram model with
// absolute discount d (0 < d < 1; 0.75 is the classic choice).
func TrainKneserNey(numPhones int, sequences [][]int, discount float64) *Bigram {
	if discount <= 0 || discount >= 1 {
		discount = 0.75
	}
	c := newCounts(numPhones)
	c.add(sequences)

	// Continuation unigram: P_cont(b) = distinct predecessors of b /
	// distinct bigram types.
	var biTypes float64
	for _, cc := range c.continuation {
		biTypes += cc
	}
	pCont := make([]float64, numPhones)
	for b := range pCont {
		if biTypes > 0 {
			pCont[b] = (c.continuation[b] + 0.5) / (biTypes + 0.5*float64(numPhones))
		} else {
			pCont[b] = 1 / float64(numPhones)
		}
	}

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
		if rowTotal == 0 {
			// Unseen history: back off entirely to the continuation model.
			for b := 0; b < numPhones; b++ {
				row[b] = math.Log(pCont[b])
			}
			m.logProb[a] = row
			continue
		}
		// Interpolation weight: lambda(a) = d·|followers(a)| / total(a).
		lambda := discount * c.followers[a] / rowTotal
		for b := 0; b < numPhones; b++ {
			disc := c.bi[a][b] - discount
			if disc < 0 {
				disc = 0
			}
			p := disc/rowTotal + lambda*pCont[b]
			if p <= 0 {
				p = 1e-12
			}
			row[b] = math.Log(p)
		}
		m.logProb[a] = row
	}
	// Initial distribution: additive smoothing over sentence starts.
	var initTotal float64
	for _, v := range c.initCnt {
		initTotal += v
	}
	for b := 0; b < numPhones; b++ {
		m.logInit[b] = math.Log((c.initCnt[b] + 1) / (initTotal + float64(numPhones)))
	}
	return m
}

// Validate checks that every history's distribution sums to one.
func (m *Bigram) Validate() error {
	rows := append([][]float64{m.logInit}, m.logProb...)
	for i, row := range rows {
		var s float64
		for _, lp := range row {
			s += math.Exp(lp)
		}
		if math.Abs(s-1) > 1e-6 {
			return fmt.Errorf("lm: row %d sums to %v", i-1, s)
		}
	}
	return nil
}

// bigramWire is the gob wire format of Bigram.
type bigramWire struct {
	NumPhones int
	LogProb   [][]float64
	LogInit   []float64
}

// GobEncode implements gob.GobEncoder.
func (m *Bigram) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(bigramWire{
		NumPhones: m.NumPhones, LogProb: m.logProb, LogInit: m.logInit,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *Bigram) GobDecode(data []byte) error {
	var w bigramWire
	if err := gobwire.Unmarshal(data, &w); err != nil {
		return err
	}
	m.NumPhones, m.logProb, m.logInit = w.NumPhones, w.LogProb, w.LogInit
	return nil
}
