package sparse

import "mggcn/internal/tensor"

// SpMMFlat is the reference kernel (flat row loop, one full-width scalar axpy
// per stored entry, a separate add-only loop for structure-only tiles): the
// oracle of the bit-identity tests and the microbenchmark baseline.
func SpMMFlat(a *CSR, x *tensor.Dense, beta float32, c *tensor.Dense) {
	checkSpMMShapes(a, x, beta, c)
	if x.IsPhantom() || c.IsPhantom() {
		return
	}
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
