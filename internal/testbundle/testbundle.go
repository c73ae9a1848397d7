// Package testbundle is the tiny synthetic model bundle the serve and
// cluster test suites score against: 2 front-ends over a 5-phone order-2
// space, 3 languages and a fusion backend, trained in milliseconds.
// Different seeds give different SVM weights, which is what the reload
// tests use to tell model generations apart.
//
// It is test support: no serving binary may link it (internal/e2e checks
// lred's dependency list).
package testbundle

import (
	"fmt"
	"testing"

	"repro/internal/cascade"
	"repro/internal/fusion"
	"repro/internal/ngram"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// The fixture space and language count.
const (
	Phones = 5
	Order  = 2
	Langs  = 3
)

// New trains the two-front-end bundle for seed.
func New(seed uint64) *persist.Bundle {
	space := ngram.NewSpace(Phones, Order)
	r := rng.New(seed)
	b := &persist.Bundle{Languages: []string{"alpha", "beta", "gamma"}}
	var all [][]*sparse.Vector
	var labels []int
	for f := 0; f < 2; f++ {
		var xs []*sparse.Vector
		labels = labels[:0]
		for i := 0; i < 60; i++ {
			k := i % Langs
			m := map[int32]float64{
				int32(k * 7):                       2 + 0.3*r.Norm(),
				int32((k*7 + f + 1) % space.Dim()): 1 + 0.2*r.Norm(),
				int32(r.Intn(space.Dim())):         0.5 * r.Float64(),
			}
			xs = append(xs, sparse.FromMap(m))
			labels = append(labels, k)
		}
		tf := ngram.EstimateTFLLR(xs, space.Dim(), 1e-5)
		for _, v := range xs {
			tf.Apply(v)
		}
		opt := svm.DefaultOptions()
		opt.Seed = seed + uint64(f)
		b.FrontEnds = append(b.FrontEnds, persist.FrontEndModel{
			Name:      fmt.Sprintf("FE%d", f),
			NumPhones: Phones,
			Order:     Order,
			TFLLR:     tf,
			OVR:       svm.TrainOneVsRest(xs, labels, Langs, space.Dim(), opt),
		})
		all = append(all, xs)
	}
	var devX [][]float64
	var devY []int
	for i := range all[0] {
		s0 := b.FrontEnds[0].OVR.Scores(all[0][i])
		s1 := b.FrontEnds[1].OVR.Scores(all[1][i])
		for k := 0; k < Langs; k++ {
			devX = append(devX, []float64{s0[k], s1[k]})
			if labels[i] == k {
				devY = append(devY, 1)
			} else {
				devY = append(devY, 0)
			}
		}
	}
	bk, err := fusion.Train(devX, devY, 2, fusion.DefaultConfig())
	if err != nil {
		panic(err)
	}
	b.Fusion = bk
	return b
}

// Write saves New(seed) into dir and returns it.
func Write(t testing.TB, dir string, seed uint64) *persist.Bundle {
	t.Helper()
	return save(t, dir, New(seed), seed)
}

// WriteCascade saves New(seed) plus a tier-1 model over FE0's inventory
// into dir and returns it. The model is trained so that sequences
// strongly biased to one phone per language carry a high margin (tier-1
// exit) and near-uniform sequences a low one (escalation).
func WriteCascade(t testing.TB, dir string, seed uint64) *persist.Bundle {
	t.Helper()
	b := New(seed)
	r := rng.New(seed ^ 0xca5c)
	train := make([][][]int, Langs)
	var dev []cascade.DevExample
	for k := 0; k < Langs; k++ {
		for i := 0; i < 15; i++ {
			train[k] = append(train[k], CascSeq(r, k, 50, 0.8))
		}
		for i := 0; i < 10; i++ {
			dev = append(dev, cascade.DevExample{Seq: CascSeq(r, k, 60, 0.8), Label: k, Tier: 0})
			dev = append(dev, cascade.DevExample{Seq: CascSeq(r, k, 10, 0.8), Label: k, Tier: 1})
		}
	}
	m, err := cascade.Train("FE0", Phones, train, []string{"30s", "3s"}, dev, cascade.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b.Cascade = m
	return save(t, dir, b, seed)
}

func save(t testing.TB, dir string, b *persist.Bundle, seed uint64) *persist.Bundle {
	t.Helper()
	if err := persist.SaveBundle(dir, b, persist.Manifest{Seed: seed, Scale: "test"}); err != nil {
		t.Fatal(err)
	}
	return b
}

// CascSeq draws a sequence biased toward language k's signature phone
// with probability bias (0.8 = clean high-margin, 0.34 = confusable).
func CascSeq(r *rng.RNG, k, length int, bias float64) []int {
	seq := make([]int, length)
	for i := range seq {
		if r.Float64() < bias {
			seq[i] = k % Phones
		} else {
			seq[i] = r.Intn(Phones)
		}
	}
	return seq
}

// Vector is a deterministic raw (pre-TFLLR) supervector inside the
// fixture space.
func Vector(seed uint64) *sparse.Vector {
	r := rng.New(seed ^ 0xbeef)
	space := ngram.NewSpace(Phones, Order)
	m := make(map[int32]float64)
	for i := 0; i < 6; i++ {
		m[int32(r.Intn(space.Dim()))] = r.Float64()
	}
	return sparse.FromMap(m)
}

// ExpectedScores is the ground truth every serving role must reproduce
// exactly: TFLLR-apply then OVR-score, per front-end, on a fresh copy.
// SameRows compares served rows against it.
func ExpectedScores(b *persist.Bundle, raw *sparse.Vector) map[string][]float64 {
	out := make(map[string][]float64)
	for i := range b.FrontEnds {
		fe := &b.FrontEnds[i]
		v := raw.Clone()
		if fe.TFLLR != nil {
			fe.TFLLR.Apply(v)
		}
		out[fe.Name] = fe.OVR.Scores(v)
	}
	return out
}

// SameRows requires got to hold exactly want's front-ends, each row
// bit-identical.
func SameRows(t testing.TB, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("scored %d front-ends, want %d", len(got), len(want))
	}
	for fe, wrow := range want {
		grow := got[fe]
		if len(grow) != len(wrow) {
			t.Fatalf("%s: %d scores, want %d", fe, len(grow), len(wrow))
		}
		for k := range wrow {
			if grow[k] != wrow[k] {
				t.Fatalf("%s score[%d] = %v, want %v (not bit-identical)", fe, k, grow[k], wrow[k])
			}
		}
	}
}

// MaskedFused recomputes the documented degraded-fusion contract from a
// response's surviving per-front-end scores: missing subsystems are
// mean-imputed by fusion.ScoreMasked, exactly what the server must have
// done.
func MaskedFused(b *persist.Bundle, scores map[string][]float64) []float64 {
	nFE := len(b.FrontEnds)
	present := make([]bool, nFE)
	for q := range b.FrontEnds {
		_, present[q] = scores[b.FrontEnds[q].Name]
	}
	numLangs := len(b.Languages)
	fused := make([]float64, numLangs)
	x := make([]float64, nFE)
	for k := 0; k < numLangs; k++ {
		for q := range b.FrontEnds {
			if row, ok := scores[b.FrontEnds[q].Name]; ok {
				x[q] = row[k]
			} else {
				x[q] = 0
			}
		}
		fused[k] = b.Fusion.ScoreMasked(x, present)[1]
	}
	return fused
}
