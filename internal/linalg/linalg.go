// Package linalg implements the dense linear algebra needed by the
// reproduction: vector/matrix arithmetic, the Cholesky factorization, a
// symmetric Jacobi eigensolver, and the generalized symmetric
// eigenproblem used by linear discriminant analysis in the fusion backend.
//
// Matrices are dense row-major. Dimensions in this project are modest
// (fusion operates in at most a few dozen dimensions), so clarity is
// preferred over blocking or SIMD tricks; the hot paths of the system are
// in the sparse supervector code, not here.
package linalg

import (
	"errors"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (shared backing array).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns the matrix-vector product a·x.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ScaleVec multiplies x by s in place.
func ScaleVec(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Cholesky computes the lower-triangular L with a = L·Lᵀ. Only the lower
// triangle of a is read.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SymEig computes all eigenvalues and eigenvectors of a symmetric matrix
// using the cyclic Jacobi method. Eigenpairs are returned in descending
// eigenvalue order; column j of the returned matrix is the j-th
// eigenvector.
func SymEig(a *Matrix) (values []float64, vectors *Matrix) {
	if a.Rows != a.Cols {
		panic("linalg: SymEig of non-square matrix")
	}
	n := a.Rows
	s := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += s.At(i, j) * s.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := s.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := s.At(p, p), s.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := t * c
				// Apply rotation to S from both sides.
				for k := 0; k < n; k++ {
					skp, skq := s.At(k, p), s.At(k, q)
					s.Set(k, p, c*skp-sn*skq)
					s.Set(k, q, sn*skp+c*skq)
				}
				for k := 0; k < n; k++ {
					spk, sqk := s.At(p, k), s.At(q, k)
					s.Set(p, k, c*spk-sn*sqk)
					s.Set(q, k, sn*spk+c*sqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-sn*vkq)
					v.Set(k, q, sn*vkp+c*vkq)
				}
			}
		}
	}
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = s.At(i, i)
	}
	// Sort descending by eigenvalue, permuting vector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if values[idx[j]] > values[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	sorted := make([]float64, n)
	vectors = NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sorted[newCol] = values[oldCol]
		for r := 0; r < n; r++ {
			vectors.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sorted, vectors
}

// GenSymEig solves the generalized symmetric eigenproblem A·x = λ·B·x for
// symmetric A and symmetric positive definite B, as needed by LDA
// (A = between-class scatter, B = within-class scatter). It reduces the
// problem to a standard one via the Cholesky factor of B. Eigenpairs are
// returned in descending order; column j of the returned matrix is the j-th
// generalized eigenvector (B-orthonormal).
func GenSymEig(a, b *Matrix) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols || b.Rows != b.Cols || a.Rows != b.Rows {
		panic("linalg: GenSymEig dimension mismatch")
	}
	l, err := Cholesky(b)
	if err != nil {
		return nil, nil, err
	}
	n := a.Rows
	// C = L⁻¹ · A · L⁻ᵀ, computed column-by-column with triangular solves.
	// First Y = L⁻¹·A (solve L·Y = A column-wise), then C = Y·L⁻ᵀ i.e.
	// solve L·Cᵀ = Yᵀ column-wise (C symmetric).
	y := NewMatrix(n, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			col[i] = a.At(i, j)
		}
		sol := forwardSolve(l, col)
		for i := 0; i < n; i++ {
			y.Set(i, j, sol[i])
		}
	}
	c := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(col, y.Row(i))
		sol := forwardSolve(l, col)
		for j := 0; j < n; j++ {
			c.Set(i, j, sol[j])
		}
	}
	// Symmetrize against round-off before Jacobi.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := 0.5 * (c.At(i, j) + c.At(j, i))
			c.Set(i, j, m)
			c.Set(j, i, m)
		}
	}
	values, u := SymEig(c)
	// Back-transform: x = L⁻ᵀ·u, column-wise back substitution.
	vectors = NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			col[i] = u.At(i, j)
		}
		sol := backSolveT(l, col)
		for i := 0; i < n; i++ {
			vectors.Set(i, j, sol[i])
		}
	}
	return values, vectors, nil
}

// forwardSolve solves L·x = b for lower-triangular L.
func forwardSolve(l *Matrix, b []float64) []float64 {
	n := l.Rows
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}

// backSolveT solves Lᵀ·x = b for lower-triangular L.
func backSolveT(l *Matrix, b []float64) []float64 {
	n := l.Rows
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}

// Outer accumulates the outer product scale·x·yᵀ into m in place.
func Outer(m *Matrix, scale float64, x, y []float64) {
	if m.Rows != len(x) || m.Cols != len(y) {
		panic("linalg: Outer dimension mismatch")
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		f := scale * xi
		for j, yj := range y {
			row[j] += f * yj
		}
	}
}
