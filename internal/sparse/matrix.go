package sparse

// Matrix is a compressed-sparse-row batch of vectors: all rows share one
// contiguous Idx arena, one Val arena, and a RowPtr offset table, so a
// training set is a handful of allocations instead of thousands of boxed
// *Vector pairs scattered across the heap. Row returns a *Vector view
// aliasing the arenas, which keeps every existing Dot/DotDense/AxpyDense
// call site working unchanged while the solver streams rows out of
// contiguous memory.
type Matrix struct {
	// RowPtr[i] is the arena offset of row i; RowPtr[len(rows)] == NNZ.
	RowPtr []int
	Idx    []int32
	Val    []float64

	// rows holds the pre-built view headers so Row(i) allocates nothing.
	rows []Vector
}

// MatrixFromRows packs vectors into one CSR matrix, copying their
// contents. The inputs are not retained; in-place mutation of a returned
// Row view (TFLLR scaling, Scale, Map) writes to the arena.
func MatrixFromRows(vs []*Vector) *Matrix {
	nnz := 0
	for _, v := range vs {
		nnz += v.NNZ()
	}
	m := &Matrix{
		RowPtr: make([]int, len(vs)+1),
		Idx:    make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
		rows:   make([]Vector, len(vs)),
	}
	for i, v := range vs {
		m.RowPtr[i] = len(m.Idx)
		m.Idx = append(m.Idx, v.Idx...)
		m.Val = append(m.Val, v.Val...)
	}
	m.RowPtr[len(vs)] = len(m.Idx)
	for i := range m.rows {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		// Full-slice expressions cap each view so an (erroneous) append
		// through a row could never clobber its neighbor.
		m.rows[i] = Vector{Idx: m.Idx[lo:hi:hi], Val: m.Val[lo:hi:hi]}
	}
	return m
}

// Row returns a view of row i. The view aliases the matrix arenas: value
// mutations are shared, and the view stays valid for the matrix lifetime.
func (m *Matrix) Row(i int) *Vector { return &m.rows[i] }

// Validate checks every row's strictly-increasing index invariant and the
// monotone RowPtr invariant.
func (m *Matrix) Validate() error {
	for i := range m.rows {
		if err := m.rows[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}
