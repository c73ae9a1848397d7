package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	p := Mul(a, Identity(2))
	for i := range a.Data {
		if a.Data[i] != p.Data[i] {
			t.Fatalf("A·I != A at %d", i)
		}
	}
	p2 := Mul(Identity(3), a)
	for i := range a.Data {
		if a.Data[i] != p2.Data[i] {
			t.Fatalf("I·A != A at %d", i)
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	p := Mul(a, b)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != want[i][j] {
				t.Errorf("(%d,%d)=%v want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	y := MulVec(a, []float64{5, 6})
	if y[0] != 17 || y[1] != 39 {
		t.Fatalf("MulVec = %v", y)
	}
}

func randSPD(r *rng.RNG, n int) *Matrix {
	// A = G·Gᵀ + n·I is SPD.
	g := NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = r.Norm()
	}
	a := Mul(g, g.T())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 5, 12} {
		a := randSPD(r, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := Mul(l, l.T())
		for i := range a.Data {
			if !approxEq(a.Data[i], rec.Data[i], 1e-9) {
				t.Fatalf("n=%d: L·Lᵀ mismatch at %d: %v vs %v", n, i, rec.Data[i], a.Data[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	vals, vecs := SymEig(a)
	want := []float64{3, 2, 1}
	for i, w := range want {
		if !approxEq(vals[i], w, 1e-10) {
			t.Fatalf("eigenvalue %d = %v, want %v", i, vals[i], w)
		}
	}
	// Eigenvectors should be signed unit axes.
	for j := 0; j < 3; j++ {
		var nrm float64
		for i := 0; i < 3; i++ {
			nrm += vecs.At(i, j) * vecs.At(i, j)
		}
		if !approxEq(nrm, 1, 1e-10) {
			t.Fatalf("eigenvector %d not unit: %v", j, nrm)
		}
	}
}

func TestSymEigReconstruction(t *testing.T) {
	r := rng.New(4)
	n := 10
	a := randSPD(r, n)
	vals, vecs := SymEig(a)
	// Check A·v_j = λ_j·v_j and descending order.
	for j := 0; j < n; j++ {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = vecs.At(i, j)
		}
		av := MulVec(a, v)
		for i := 0; i < n; i++ {
			if !approxEq(av[i], vals[j]*v[i], 1e-7*math.Abs(vals[j])+1e-9) {
				t.Fatalf("A·v != λ·v at eig %d comp %d: %v vs %v", j, i, av[i], vals[j]*v[i])
			}
		}
		if j > 0 && vals[j] > vals[j-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", vals)
		}
	}
}

func TestGenSymEig(t *testing.T) {
	r := rng.New(5)
	n := 7
	a := randSPD(r, n)
	b := randSPD(r, n)
	vals, vecs, err := GenSymEig(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = vecs.At(i, j)
		}
		av := MulVec(a, v)
		bv := MulVec(b, v)
		for i := 0; i < n; i++ {
			if !approxEq(av[i], vals[j]*bv[i], 1e-6*(1+math.Abs(vals[j]))) {
				t.Fatalf("A·v != λ·B·v at eig %d comp %d: %v vs %v", j, i, av[i], vals[j]*bv[i])
			}
		}
	}
}

func TestDotAxpyNorm(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestOuterAndMean(t *testing.T) {
	m := NewMatrix(2, 2)
	Outer(m, 2, []float64{1, 2}, []float64{3, 4})
	if m.At(0, 0) != 6 || m.At(0, 1) != 8 || m.At(1, 0) != 12 || m.At(1, 1) != 16 {
		t.Fatalf("Outer = %v", m.Data)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	r := rng.New(6)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		n := rr.Intn(5) + 1
		mk := func() *Matrix {
			m := NewMatrix(n, n)
			for i := range m.Data {
				m.Data[i] = rr.Norm()
			}
			return m
		}
		a, b, c := mk(), mk(), mk()
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		for i := range left.Data {
			if !approxEq(left.Data[i], right.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// No binary links these; the package's tests use them as referees or
// fixtures.

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}
