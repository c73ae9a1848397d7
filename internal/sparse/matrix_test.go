package sparse

import (
	"testing"

	"repro/internal/rng"
)

func randBoxedVectors(r *rng.RNG, rows, dim, maxNNZ int) []*Vector {
	out := make([]*Vector, rows)
	for i := range out {
		m := make(map[int32]float64)
		for k := 0; k < r.Intn(maxNNZ)+1; k++ {
			m[int32(r.Intn(dim))] = r.Norm()
		}
		out[i] = FromMap(m)
	}
	return out
}

func TestMatrixRowsMatchBoxed(t *testing.T) {
	root := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		r := root.Split(uint64(trial))
		boxed := randBoxedVectors(r, r.Intn(40)+1, 2000, 80)
		m := MatrixFromRows(boxed)
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if m.NumRows() != len(boxed) {
			t.Fatalf("trial %d: rows %d != %d", trial, m.NumRows(), len(boxed))
		}
		w := make([]float64, 2000)
		for j := range w {
			w[j] = r.Norm()
		}
		for i, b := range boxed {
			row := m.Row(i)
			if len(row.Idx) != len(b.Idx) {
				t.Fatalf("trial %d row %d: nnz mismatch", trial, i)
			}
			for k := range row.Idx {
				if row.Idx[k] != b.Idx[k] || row.Val[k] != b.Val[k] {
					t.Fatalf("trial %d row %d entry %d mismatch", trial, i, k)
				}
			}
			// The dot kernels over a CSR row view must produce the same
			// bits as over the boxed original.
			if got, want := row.DotDense(w), b.DotDense(w); got != want {
				t.Fatalf("trial %d row %d: DotDense %v != %v", trial, i, got, want)
			}
			if got, want := Dot(row, b), Dot(b, b); got != want {
				t.Fatalf("trial %d row %d: Dot %v != %v", trial, i, got, want)
			}
		}
	}
}

func TestMatrixRowMutationShared(t *testing.T) {
	m := MatrixFromRows([]*Vector{FromDense([]float64{1, 0, 2}), FromDense([]float64{0, 3, 0})})
	m.Row(0).Scale(10)
	if m.Val[0] != 10 || m.Val[1] != 20 {
		t.Fatalf("row mutation did not reach arena: %v", m.Val)
	}
	if m.Row(1).Val[0] != 3 {
		t.Fatalf("neighbor row clobbered: %v", m.Row(1).Val)
	}
}

// CSR-vs-boxed dot kernel benchmarks: same arithmetic, different memory
// layout — the CSR pass streams one contiguous arena.

func benchDotSetup(b *testing.B) ([]*Vector, *Matrix, []float64) {
	b.Helper()
	r := rng.New(5)
	boxed := randBoxedVectors(r, 512, 3540, 400)
	m := MatrixFromRows(boxed)
	w := make([]float64, 3540)
	for j := range w {
		w[j] = r.Norm()
	}
	return boxed, m, w
}

func BenchmarkDotDenseBoxed(b *testing.B) {
	boxed, _, w := benchDotSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for n := 0; n < b.N; n++ {
		for _, v := range boxed {
			s += v.DotDense(w)
		}
	}
	sinkFloat = s
}

func BenchmarkDotDenseCSR(b *testing.B) {
	_, m, w := benchDotSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for n := 0; n < b.N; n++ {
		for i := 0; i < m.NumRows(); i++ {
			s += m.Row(i).DotDense(w)
		}
	}
	sinkFloat = s
}

var sinkFloat float64

// No binary links this; the package's tests use it as a referee or
// fixture.

// NumRows returns the number of rows.
func (m *Matrix) NumRows() int { return len(m.rows) }
