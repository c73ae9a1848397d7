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

	"repro/internal/adapt"
	"repro/internal/cascade"
	"repro/internal/fusion"
	"repro/internal/ngram"
	"repro/internal/persist"
	"repro/internal/proj"
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
	var dev [][][]float64
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
			OVR:       svm.TrainOVR(xs, labels, Langs, space.Dim(), opt),
		})
		rows := make([][]float64, len(xs))
		for i, v := range xs {
			rows[i] = b.FrontEnds[f].OVR.Scores(v)
		}
		dev = append(dev, rows)
	}
	x, y := fusion.Trials(dev, nil, labels, nil)
	bk, err := fusion.Train(x, y, 2, fusion.DefaultConfig())
	if err != nil {
		panic(err)
	}
	b.Fusion = bk
	return b
}

// NewCompressed is New(seed) in the compressed form `lre -export-models
// -compress-rank` writes: per front-end, a rank-r projection fitted on
// TFLLR-scaled probe vectors and packed to int8, and the OVR weights
// projected into the rank space (w' = B·w, so w'·Bx ≈ w·x) and
// quantized, with the float64 set dropped. The fusion backend is kept:
// it only sees score rows, whatever space they came from.
func NewCompressed(t testing.TB, seed uint64, rank int) *persist.Bundle {
	t.Helper()
	b := New(seed)
	dim := ngram.NewSpace(Phones, Order).Dim()
	r := rng.New(seed ^ 0xc0ffee)
	var probes []*sparse.Vector
	for i := 0; i < 40; i++ {
		m := make(map[int32]float64)
		for j := 0; j < 8; j++ {
			m[int32(r.Intn(dim))] = r.Float64()
		}
		probes = append(probes, sparse.FromMap(m))
	}
	for f := range b.FrontEnds {
		fe := &b.FrontEnds[f]
		scaled := make([]*sparse.Vector, len(probes))
		for i, p := range probes {
			v := p.Clone()
			fe.TFLLR.Apply(v)
			scaled[i] = v
		}
		p, err := proj.Fit(scaled, dim, proj.Config{Rank: rank, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := p.Pack()
		if err != nil {
			t.Fatal(err)
		}
		ovr := &svm.OneVsRest{NumClasses: fe.OVR.NumClasses}
		for _, mdl := range fe.OVR.Models {
			w := make([]float64, rank)
			for d := 0; d < rank; d++ {
				row := p.Basis[d*dim : (d+1)*dim]
				var s float64
				for j, wv := range mdl.W {
					s += wv * row[j]
				}
				w[d] = s
			}
			ovr.Models = append(ovr.Models, &svm.Model{W: w, Bias: mdl.Bias})
		}
		q, err := ovr.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		fe.Proj, fe.OVR, fe.Quant = packed, nil, q
	}
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
	return save(t, dir, NewCascade(t, seed), seed)
}

// NewCascade is New(seed) plus WriteCascade's tier-1 model.
func NewCascade(t testing.TB, seed uint64) *persist.Bundle {
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
	return b
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

// AdaptPolicy is an adapt policy spec permissive on every gate, for
// tests of the serving-layer wiring (endpoints, hot swap, readiness)
// rather than the gate thresholds, which internal/adapt's own suite
// covers.
const AdaptPolicy = "cadence=1h;probe=1h;votes=1;min-utts=1;buffer=64;" +
	"shadow-rate=1;shadow-bound=1e6;eer-budget=100;canary-tol=1e6;keep=4"

// WriteAdapt saves b, a fixture bundle trained for seed, into dir with a
// matching adapt sidecar, the layout `lre -export-models` produces, and
// returns b.
func WriteAdapt(t testing.TB, dir string, b *persist.Bundle, seed uint64) *persist.Bundle {
	t.Helper()
	const (
		nTrain   = 18
		nHoldout = 12
	)
	set := &adapt.Set{
		FormatVersion: adapt.SetFormatVersion,
		Languages:     append([]string(nil), b.Languages...),
		SVM:           svm.DefaultOptions(),
		Seed:          seed,
	}
	set.SVM.Seed = seed
	for i := 0; i < nTrain; i++ {
		set.TrainLabels = append(set.TrainLabels, i%Langs)
	}
	for i := 0; i < nHoldout; i++ {
		set.HoldoutLabels = append(set.HoldoutLabels, i%Langs)
	}
	for q := range b.FrontEnds {
		fe := &b.FrontEnds[q]
		// Sidecar vectors live in the front-end's weight space: raw
		// fixture vectors with the bundle's own TFLLR applied.
		weightSpace := func(n int, salt uint64) []*sparse.Vector {
			out := make([]*sparse.Vector, n)
			for i := range out {
				v := Vector(seed + salt + uint64(i)*17).Clone()
				if fe.TFLLR != nil {
					fe.TFLLR.Apply(v)
				}
				out[i] = v
			}
			return out
		}
		sfe := adapt.SetFrontEnd{
			Name:    fe.Name,
			Dim:     fe.WeightDim(),
			Train:   weightSpace(nTrain, 1000),
			Holdout: weightSpace(nHoldout, 5000),
		}
		for j := 0; j < nHoldout; j++ {
			sfe.RefereeScores = append(sfe.RefereeScores, fe.Scores(sfe.Holdout[j]))
		}
		set.FrontEnds = append(set.FrontEnds, sfe)
	}
	if err := adapt.SaveSet(dir, set); err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveBundle(dir, b, persist.Manifest{Seed: seed, Scale: "test", AdaptFile: adapt.SetFile}); err != nil {
		t.Fatal(err)
	}
	return b
}

// FeedAdapter offers a, adapting the serving bundle b, n full-battery
// observations with forged served rows (one small positive, rest
// negative — an unambiguous Eq. 13 vote that does not saturate the fused
// scale).
func FeedAdapter(a *adapt.Adapter, b *persist.Bundle, n int) {
	for j := 0; j < n; j++ {
		k := j % Langs
		vectors := make(map[int]*sparse.Vector)
		scores := make(map[int][]float64)
		for q := range b.FrontEnds {
			fe := &b.FrontEnds[q]
			v := Vector(900 + uint64(j)*31).Clone()
			if fe.TFLLR != nil {
				fe.TFLLR.Apply(v)
			}
			vectors[q] = v
			row := make([]float64, Langs)
			for i := range row {
				row[i] = -0.25
			}
			row[k] = 0.25
			scores[q] = row
		}
		a.Observe(vectors, scores)
	}
}
