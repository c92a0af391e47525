// Package sparse provides Compressed Sparse Row matrices and the SpMM
// kernels at the heart of GCN training. A matrix holds its values in one of
// three forms: one per stored entry (Vals), one per row or per column (a
// scale: what eq. (2)'s in-degree normalization gives an unweighted graph's
// adjacency, n floats for every tile of it), or none ("structure-only":
// every stored entry is implicitly 1 for arithmetic purposes, or the matrix
// is used purely for cost/partitioning analysis).
package sparse

import (
	"fmt"
	"slices"
)

// CSR is a sparse matrix in Compressed Sparse Row format.
//
//	RowPtr has Rows+1 entries; column indices of row i live in
//	ColIdx[RowPtr[i]:RowPtr[i+1]], sorted ascending within the row.
//	Vals is either nil or parallel to ColIdx. With Vals nil, a non-nil
//	RowScale (Rows long) gives every entry of row i the value RowScale[i],
//	or a non-nil ColScale (Cols long) every entry of column j ColScale[j];
//	with neither, every entry is 1. At most one of the three is set.
//
// Tiles of one matrix may share their structure and their scale: every
// method treats all of them as read-only.
type CSR struct {
	Rows, Cols         int
	RowPtr             []int64
	ColIdx             []int32
	Vals               []float32
	RowScale, ColScale []float32
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int64 { return m.RowPtr[m.Rows] }

// Bytes returns the CSR storage footprint in bytes (rowptr 8B, colidx 4B,
// vals 4B each), counting a value per entry whatever form the values take,
// so that memory accounting reflects what the modelled device stores.
func (m *CSR) Bytes() int64 {
	return int64(m.Rows+1)*8 + m.NNZ()*4 + m.NNZ()*4
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int64 { return m.RowPtr[i+1] - m.RowPtr[i] }

// Row returns the column indices and values of row i. vals is nil unless
// the matrix stores a value per entry.
func (m *CSR) Row(i int) (cols []int32, vals []float32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols = m.ColIdx[lo:hi]
	if m.Vals != nil {
		vals = m.Vals[lo:hi]
	}
	return cols, vals
}

// Coo is a coordinate-format entry used to build CSR matrices.
type Coo struct {
	Row, Col int32
	Val      float32
}

// FromCoo builds a CSR matrix from coordinate entries. Duplicate (row,col)
// pairs are summed in input order. If withVals is false the result is
// structure-only and duplicate coordinates are collapsed. Test support:
// tests build their matrices with it; the generator scatters its edge list
// directly.
func FromCoo(rows, cols int, entries []Coo, withVals bool) *CSR {
	// A stable counting scatter by column builds the CSC; its transpose is
	// the CSR with every row's columns ascending and, within a duplicated
	// coordinate, the entries still in input order.
	csc := &CSR{Rows: cols, Cols: rows, RowPtr: make([]int64, cols+2), ColIdx: make([]int32, len(entries))}
	if withVals {
		csc.Vals = make([]float32, len(entries))
	}
	for _, e := range entries {
		if int(e.Row) < 0 || int(e.Row) >= rows || int(e.Col) < 0 || int(e.Col) >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols))
		}
		csc.RowPtr[e.Col+2]++
	}
	for c := 0; c < cols; c++ {
		csc.RowPtr[c+2] += csc.RowPtr[c+1]
	}
	for _, e := range entries {
		pos := csc.RowPtr[e.Col+1]
		csc.RowPtr[e.Col+1]++
		csc.ColIdx[pos] = e.Row
		if withVals {
			csc.Vals[pos] = e.Val
		}
	}
	csc.RowPtr = csc.RowPtr[:cols+1]
	m := csc.Transpose()

	// Merge each row's adjacent duplicates in place.
	var w, lo int64
	for r := 0; r < rows; r++ {
		hi := m.RowPtr[r+1]
		for k := lo; k < hi; k++ {
			if k > lo && m.ColIdx[k] == m.ColIdx[w-1] {
				if withVals {
					m.Vals[w-1] += m.Vals[k]
				}
				continue
			}
			m.ColIdx[w] = m.ColIdx[k]
			if withVals {
				m.Vals[w] = m.Vals[k]
			}
			w++
		}
		lo = hi
		m.RowPtr[r+1] = w
	}
	m.ColIdx = m.ColIdx[:w]
	if withVals {
		m.Vals = m.Vals[:w]
	}
	return m
}

// Transpose returns the transpose of m in CSR form (equivalently m in CSC).
func (m *CSR) Transpose() *CSR { return m.TransposeInto(&CSR{}) }

// TransposeInto writes the transpose of m into t, reusing t's slices where
// their capacity suffices, and returns t. A warmed t makes the call
// allocation-free, which is what lets a sampler stage rebuild a block's CSC
// every step. A row scale becomes a column scale and the other way round,
// shared with m.
func (m *CSR) TransposeInto(t *CSR) *CSR {
	nnz := int(m.NNZ())
	t.Rows, t.Cols = m.Cols, m.Rows
	t.RowScale, t.ColScale = m.ColScale, m.RowScale
	t.ColIdx = resize(t.ColIdx, nnz)
	if m.Vals != nil {
		t.Vals = resize(t.Vals, nnz)
	} else {
		t.Vals = nil
	}
	// Counting sort with the cursors kept in the row-pointer array itself,
	// one slot ahead: ptr[c+2] counts column c, the prefix sum leaves
	// ptr[c+1] at row c's start, and placing an entry advances it, so after
	// the scatter ptr[c+1] is row c's end — the finished RowPtr.
	ptr := resize(t.RowPtr, m.Cols+2)
	clear(ptr)
	for _, c := range m.ColIdx[:nnz] {
		ptr[c+2]++
	}
	for r := 0; r < m.Cols; r++ {
		ptr[r+2] += ptr[r+1]
	}
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			pos := ptr[c+1]
			ptr[c+1]++
			t.ColIdx[pos] = int32(r)
			if m.Vals != nil {
				t.Vals[pos] = m.Vals[k]
			}
		}
	}
	t.RowPtr = ptr[:m.Cols+1]
	return t
}

// resize returns s with length n, reallocating only when its capacity is
// too small (or s is nil, so a zero-length result is still non-nil).
// Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SubMatrix extracts the tile with rows [r0,r1) and columns [c0,c1) as a new
// CSR matrix with local (shifted) indices. Values keep their form: a scaled
// matrix's tile shares the slice of the scale its rows or columns cover.
func (m *CSR) SubMatrix(r0, r1, c0, c1 int) *CSR {
	if r0 < 0 || r1 < r0 || r1 > m.Rows || c0 < 0 || c1 < c0 || c1 > m.Cols {
		panic(fmt.Sprintf("sparse: tile [%d,%d)x[%d,%d) outside %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	t := &CSR{Rows: r1 - r0, Cols: c1 - c0, RowPtr: make([]int64, r1-r0+1)}
	if m.RowScale != nil {
		t.RowScale = m.RowScale[r0:r1:r1]
	}
	if m.ColScale != nil {
		t.ColScale = m.ColScale[c0:c1:c1]
	}
	lo32, hi32 := int32(c0), int32(c1)
	for r := r0; r < r1; r++ {
		cols, _ := m.Row(r)
		// Rows are sorted, so the tile's columns are a contiguous range.
		a, _ := slices.BinarySearch(cols, lo32)
		b, _ := slices.BinarySearch(cols, hi32)
		t.RowPtr[r-r0+1] = t.RowPtr[r-r0] + int64(b-a)
	}
	nnz := t.RowPtr[t.Rows]
	t.ColIdx = make([]int32, 0, nnz)
	if m.Vals != nil {
		t.Vals = make([]float32, 0, nnz)
	}
	for r := r0; r < r1; r++ {
		cols, vals := m.Row(r)
		a, _ := slices.BinarySearch(cols, lo32)
		b, _ := slices.BinarySearch(cols, hi32)
		for k := a; k < b; k++ {
			t.ColIdx = append(t.ColIdx, cols[k]-lo32)
			if vals != nil {
				t.Vals = append(t.Vals, vals[k])
			}
		}
	}
	return t
}

// CountTileNNZ returns the number of stored entries in the tile
// [r0,r1) x [c0,c1) without materializing it. Test support: the oracle of
// the partitioner's per-tile counts.
func (m *CSR) CountTileNNZ(r0, r1, c0, c1 int) int64 {
	lo32, hi32 := int32(c0), int32(c1)
	var nnz int64
	for r := r0; r < r1; r++ {
		cols, _ := m.Row(r)
		a, _ := slices.BinarySearch(cols, lo32)
		b, _ := slices.BinarySearch(cols, hi32)
		nnz += int64(b - a)
	}
	return nnz
}

// Validate checks structural invariants and returns an error describing the
// first violation found, or nil.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
	}
	if int64(len(m.ColIdx)) != m.NNZ() {
		return fmt.Errorf("sparse: ColIdx length %d, want %d", len(m.ColIdx), m.NNZ())
	}
	if m.Vals != nil && int64(len(m.Vals)) != m.NNZ() {
		return fmt.Errorf("sparse: Vals length %d, want %d", len(m.Vals), m.NNZ())
	}
	if (m.Vals != nil && (m.RowScale != nil || m.ColScale != nil)) || (m.RowScale != nil && m.ColScale != nil) {
		return fmt.Errorf("sparse: more than one of Vals, RowScale and ColScale set")
	}
	if m.RowScale != nil && len(m.RowScale) != m.Rows || m.ColScale != nil && len(m.ColScale) != m.Cols {
		return fmt.Errorf("sparse: scale lengths %d and %d for a %dx%d matrix", len(m.RowScale), len(m.ColScale), m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for k, c := range cols {
			if int(c) < 0 || int(c) >= m.Cols {
				return fmt.Errorf("sparse: row %d col %d out of range", i, c)
			}
			if k > 0 && cols[k-1] >= c {
				return fmt.Errorf("sparse: row %d columns not strictly ascending at %d", i, k)
			}
		}
	}
	return nil
}

// ToDenseRows materializes the matrix as [][]float32. Structure-only entries
// materialize as 1. Test support: the dense oracle of the sparse kernels.
func (m *CSR) ToDenseRows() [][]float32 {
	out := make([][]float32, m.Rows)
	for i := range out {
		out[i] = make([]float32, m.Cols)
		cols, vals := m.Row(i)
		for k, c := range cols {
			v := float32(1)
			switch {
			case vals != nil:
				v = vals[k]
			case m.RowScale != nil:
				v = m.RowScale[i]
			case m.ColScale != nil:
				v = m.ColScale[c]
			}
			out[i][c] = v
		}
	}
	return out
}
