package proj

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// plantedData draws n sparse vectors concentrated on a planted rank-k
// subspace plus small isotropic noise, so a rank-k fit must capture
// almost all of the energy.
func plantedData(n, dim, k int, seed uint64) ([]*sparse.Vector, [][]float64) {
	r := rng.New(seed)
	basis := make([][]float64, k)
	for d := range basis {
		basis[d] = make([]float64, dim)
		for j := range basis[d] {
			basis[d][j] = r.Norm()
		}
	}
	xs := make([]*sparse.Vector, n)
	for i := range xs {
		dense := make([]float64, dim)
		for d := range basis {
			c := r.Norm() * float64(k-d) // decaying spectrum
			for j, b := range basis[d] {
				dense[j] += c * b
			}
		}
		for j := range dense {
			dense[j] += 0.01 * r.Norm()
		}
		xs[i] = sparse.FromDense(dense)
	}
	return xs, basis
}

func TestFitRecoversPlantedSubspace(t *testing.T) {
	const n, dim, k = 60, 120, 4
	xs, _ := plantedData(n, dim, k, 7)
	p, err := Fit(xs, dim, Config{Rank: k, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Orthonormal rows.
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			var dot float64
			for j := 0; j < dim; j++ {
				dot += p.Basis[a*dim+j] * p.Basis[b*dim+j]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Fatalf("basis rows %d·%d = %v, want %v", a, b, dot, want)
			}
		}
	}
	// The projection must capture nearly all the energy of each vector.
	out := make([]float64, k)
	var kept, total float64
	for _, x := range xs {
		p.ApplyInto(x, out)
		for _, v := range out {
			kept += v * v
		}
		n2 := x.Norm2()
		total += n2 * n2
	}
	if kept/total < 0.99 {
		t.Fatalf("rank-%d fit kept %.4f of the energy, want ≥ 0.99", k, kept/total)
	}
	// Energy estimates are reported in decreasing order (up to power
	// iteration slack on near-ties; the planted spectrum is well split).
	for d := 1; d < k; d++ {
		if p.Energy[d] > p.Energy[d-1]*1.01 {
			t.Fatalf("energy not decreasing: %v", p.Energy)
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	xs, _ := plantedData(40, 80, 3, 11)
	a, err := Fit(xs, 80, Config{Rank: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(xs, 80, Config{Rank: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Basis {
		if a.Basis[i] != b.Basis[i] {
			t.Fatalf("basis differs at %d: %v vs %v", i, a.Basis[i], b.Basis[i])
		}
	}
}

// TestFitSupervisedClassDirections: with labels, the leading basis rows
// span the class-mean differences, so projecting preserves the
// between-class geometry even at tiny rank — three unit-separated
// clusters keep their full pairwise mean distances after a rank-2
// supervised fit even though a nuisance direction carries 100× the
// class-split variance.
func TestFitSupervisedClassDirections(t *testing.T) {
	const n, dim, k = 90, 60, 3
	r := rng.New(19)
	// Class c lives at mean e_c (axes 0..2); a shared nuisance direction
	// on axes 10..59 carries 100× the variance of the class split.
	xs := make([]*sparse.Vector, n)
	labels := make([]int, n)
	nuis := make([]float64, dim)
	for j := 10; j < dim; j++ {
		nuis[j] = r.Norm()
	}
	for i := range xs {
		c := i % k
		labels[i] = c
		dense := make([]float64, dim)
		dense[c] = 1 + 0.05*r.Norm()
		// ±10 alternating: each class sees the nuisance with an exactly
		// zero mean, so it cannot leak into the class-mean directions.
		a := 10.0
		if i%2 == 1 {
			a = -10
		}
		for j, v := range nuis {
			dense[j] += a * v
		}
		xs[i] = sparse.FromDense(dense)
	}
	sep := func(p *Projection) float64 {
		// Smallest pairwise distance between projected class means.
		out := make([]float64, p.Rank)
		means := make([][]float64, k)
		for c := range means {
			means[c] = make([]float64, p.Rank)
		}
		for i, x := range xs {
			p.ApplyInto(x, out)
			for d, v := range out {
				means[labels[i]][d] += v * k / float64(n)
			}
		}
		min := math.Inf(1)
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				var d2 float64
				for d := 0; d < p.Rank; d++ {
					diff := means[a][d] - means[b][d]
					d2 += diff * diff
				}
				if d2 < min {
					min = d2
				}
			}
		}
		return math.Sqrt(min)
	}
	sup, err := Fit(xs, dim, Config{Rank: 2, Seed: 1, Labels: labels, NumClasses: k})
	if err != nil {
		t.Fatal(err)
	}
	// The two supervised rows span all three mean differences (they sum
	// to ~zero), so projection preserves the pairwise mean distances —
	// ≈ √2 for unit class axes — regardless of the 100×-variance
	// nuisance direction an unsupervised rank-2 fit would spend a row on.
	if s := sep(sup); s < 1.0 {
		t.Fatalf("supervised rank-2 separation %v, want ≥ 1.0 (≈√2 expected)", s)
	}
	// Orthonormal leading rows (greedy deflation must still normalize).
	for a := 0; a < 2; a++ {
		for b := a; b < 2; b++ {
			var dot float64
			for j := 0; j < dim; j++ {
				dot += sup.Basis[a*dim+j] * sup.Basis[b*dim+j]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Fatalf("supervised rows %d·%d = %v, want %v", a, b, dot, want)
			}
		}
	}
	// Supervised fits stay deterministic.
	again, err := Fit(xs, dim, Config{Rank: 2, Seed: 1, Labels: labels, NumClasses: k})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sup.Basis {
		if sup.Basis[i] != again.Basis[i] {
			t.Fatalf("supervised basis not deterministic at %d", i)
		}
	}
	// Rank beyond the k−1 independent class directions falls through to
	// variance directions — the basis stays orthonormal end to end.
	full, err := Fit(xs, dim, Config{Rank: 5, Seed: 1, Labels: labels, NumClasses: k})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			var dot float64
			for j := 0; j < dim; j++ {
				dot += full.Basis[a*dim+j] * full.Basis[b*dim+j]
			}
			// One-pass deflation against a dominant removed direction
			// leaves ~1e-6 residual — blurs the split, never breaks it.
			if math.Abs(dot) > 1e-4 {
				t.Fatalf("mixed supervised/variance rows %d·%d = %v, want ~0", a, b, dot)
			}
		}
	}
}

// TestFitAnchorsPreserveLinearScores: anchoring the fit on a set of
// weight vectors makes the projection lossless for those classifiers —
// w·x equals the rank-space score (w projected into the basis) · (x
// projected into the basis) for every x, because w lies in the span.
func TestFitAnchorsPreserveLinearScores(t *testing.T) {
	const n, dim, k = 40, 50, 4
	xs, _ := plantedData(n, dim, 6, 13)
	r := rng.New(29)
	anchors := make([][]float64, k)
	for c := range anchors {
		anchors[c] = make([]float64, dim)
		for j := range anchors[c] {
			anchors[c][j] = r.Norm()
		}
	}
	p, err := Fit(xs, dim, Config{Rank: 6, Seed: 3, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, p.Rank)
	for c, w := range anchors {
		// w expressed in the rank space.
		wr := make([]float64, p.Rank)
		for d := 0; d < p.Rank; d++ {
			for j, wv := range w {
				wr[d] += wv * p.Basis[d*dim+j]
			}
		}
		for i, x := range xs {
			direct := x.DotDense(w)
			p.ApplyInto(x, out)
			var projected float64
			for d, v := range out {
				projected += wr[d] * v
			}
			scale := math.Abs(direct) + 1
			if math.Abs(direct-projected) > 1e-8*scale {
				t.Fatalf("anchor %d vector %d: direct %v vs rank-space %v", c, i, direct, projected)
			}
		}
	}
	// Anchors must not be mutated by the fit.
	r2 := rng.New(29)
	for c := range anchors {
		for j := range anchors[c] {
			if want := r2.Norm(); anchors[c][j] != want {
				t.Fatalf("anchor %d mutated at %d", c, j)
			}
		}
	}
	if _, err := Fit(xs, dim, Config{Rank: 6, Anchors: [][]float64{make([]float64, dim-1)}}); err == nil {
		t.Error("wrong-length anchor accepted")
	}
}

func TestFitSupervisedArgumentErrors(t *testing.T) {
	xs, _ := plantedData(6, 10, 2, 3)
	if _, err := Fit(xs, 10, Config{Rank: 2, Labels: []int{0, 1}}); err == nil {
		t.Error("label/vector count mismatch accepted")
	}
	labels := []int{0, 1, 0, 1, 0, 1}
	if _, err := Fit(xs, 10, Config{Rank: 2, Labels: labels}); err == nil {
		t.Error("missing NumClasses accepted")
	}
	if _, err := Fit(xs, 10, Config{Rank: 2, Labels: []int{0, 1, 0, 1, 0, 7}, NumClasses: 2}); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestFitArgumentErrors(t *testing.T) {
	xs, _ := plantedData(5, 10, 2, 3)
	if _, err := Fit(xs, 10, Config{Rank: 0}); err == nil {
		t.Error("rank 0 accepted")
	}
	if _, err := Fit(xs, 10, Config{Rank: 11}); err == nil {
		t.Error("rank > dim accepted")
	}
	if _, err := Fit(nil, 10, Config{Rank: 2}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Fit(xs, 0, Config{Rank: 2}); err == nil {
		t.Error("dim 0 accepted")
	}
}

// TestPackedMatchesFloat64 pins the int8 packed apply against the
// row-major float64 oracle.
func TestPackedMatchesFloat64(t *testing.T) {
	const n, dim, k = 30, 64, 5
	xs, _ := plantedData(n, dim, k, 19)
	p, err := Fit(xs, dim, Config{Rank: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]float64, k)
	got := make([]float64, k)
	pk, err := p.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		p.ApplyInto(x, oracle)
		pk.ApplyInto(x, got)
		var scale float64
		for d := range oracle {
			if a := math.Abs(oracle[d]); a > scale {
				scale = a
			}
		}
		tol := 0.02 * scale // 1/127 per-component step, accumulated
		for d := range oracle {
			if math.Abs(got[d]-oracle[d]) > tol {
				t.Fatalf("direction %d: got %v, oracle %v (tol %v)", d, got[d], oracle[d], tol)
			}
		}
	}
}

func TestPackedGobRoundTrip(t *testing.T) {
	xs, _ := plantedData(20, 40, 3, 23)
	p, err := Fit(xs, 40, Config{Rank: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pk, err := p.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pk); err != nil {
		t.Fatal(err)
	}
	var back Packed
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b := make([]float64, 3), make([]float64, 3)
	for _, x := range xs {
		pk.ApplyInto(x, a)
		back.ApplyInto(x, b)
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("round trip changed apply: %v vs %v", a, b)
			}
		}
	}
}

func TestPackedValidateRejects(t *testing.T) {
	xs, _ := plantedData(10, 20, 2, 29)
	p, _ := Fit(xs, 20, Config{Rank: 2, Seed: 3})
	fresh := func() *Packed {
		pk, err := p.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return pk
	}
	cases := map[string]*Packed{}
	pk := fresh()
	pk.Q8 = pk.Q8[:len(pk.Q8)-1]
	cases["truncated weights"] = pk
	pk = fresh()
	pk.Scale[0] = math.NaN()
	cases["NaN scale"] = pk
	pk = fresh()
	pk.Scale[1] = 0
	cases["zero scale"] = pk
	pk = fresh()
	pk.Rank = pk.Dim + 1
	cases["rank over dim"] = pk
	for name, bad := range cases {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt projection", name)
		}
	}
	var nilPk *Packed
	if err := nilPk.Validate(); err != nil {
		t.Errorf("nil packed projection should validate: %v", err)
	}
}

// No binary links this; the package's tests use it as a referee or
// fixture.

// ApplyInto writes the projection of a supervector into out (length
// Rank): out[d] = basis row d · x.
func (p *Projection) ApplyInto(x *sparse.Vector, out []float64) {
	for d := 0; d < p.Rank; d++ {
		out[d] = x.DotDense(p.Basis[d*p.Dim : (d+1)*p.Dim])
	}
}
