package sparse

import "mggcn/internal/tensor"

// SpMMFlat is the reference kernel (flat row loop, one full-width scalar axpy
// per stored entry, a separate add-only loop for structure-only tiles): the
// oracle of the bit-identity tests and the microbenchmark baseline. A scaled
// A is multiplied through its Expand, values per entry.
func SpMMFlat(a *CSR, x *tensor.Dense, beta float32, c *tensor.Dense) {
	checkSpMMShapes(a, x, beta, c)
	if x.IsPhantom() || c.IsPhantom() {
		return
	}
	a = Expand(a)
	for i := 0; i < a.Rows; i++ {
		rc := c.Row(i)
		if beta == 0 {
			for j := range rc {
				rc[j] = 0
			}
		}
		cols, vals := a.Row(i)
		if vals == nil {
			for _, col := range cols {
				rx := x.Row(int(col))
				for j := range rc {
					rc[j] += rx[j]
				}
			}
		} else {
			for k, col := range cols {
				av := vals[k]
				rx := x.Row(int(col))
				for j := range rc {
					rc[j] += av * rx[j]
				}
			}
		}
	}
}

// Expand returns m with a value per entry, each the one m's row or column
// scale gives it, sharing m's structure; an m without a scale is returned
// as is. It is the oracles' reading of a factored matrix.
func Expand(m *CSR) *CSR {
	if m.RowScale == nil && m.ColScale == nil {
		return m
	}
	e := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Vals: make([]float32, m.NNZ())}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.RowScale != nil {
				e.Vals[k] = m.RowScale[i]
			} else {
				e.Vals[k] = m.ColScale[m.ColIdx[k]]
			}
		}
	}
	return e
}
