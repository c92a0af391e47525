package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

type rowKernel = func(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool)

// formSpecials are the scale and X values arithmetic treats unevenly: both
// zeros, NaN of both signs, both infinities, the smallest denormals of both
// signs and the largest finite float.
var formSpecials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()), -float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32,
}

// checkFormsMatchPerEntry runs one row through row in the RowConst form
// (with row r's scale) and the ByColumn form (with the whole scale) and
// requires of each the bits the PerEntry form gives with vals spelled out
// from the same scale, C's guard band included.
func checkFormsMatchPerEntry(t *testing.T, what string, row rowKernel, c0, x []float32, xs, xrows int, cols []int32, scale []float32, r, n int, acc bool) {
	t.Helper()
	w := len(c0) - 6
	perRow, perCol := make([]float32, len(cols)), make([]float32, len(cols))
	for k, col := range cols {
		perRow[k], perCol[k] = scale[r], scale[col]
	}
	for _, tc := range []struct {
		form     ValForm
		vals     []float32
		expanded []float32
	}{
		{RowConst, scale[r : r+1], perRow},
		{ByColumn, scale[:xrows], perCol},
	} {
		got, want := append([]float32(nil), c0...), append([]float32(nil), c0...)
		row(got[3:3+w], x, xs, xrows, cols, tc.vals, tc.form, n, acc)
		row(want[3:3+w], x, xs, xrows, cols, tc.expanded, PerEntry, n, acc)
		bitsEqual(t, fmt.Sprintf("%s form %d against PerEntry", what, tc.form), w, 3, got, want)
	}
}

// TestSpMMRowFormsMatchPerEntry: a value per row and a value per column are
// the per-entry form with those values written out, bit for bit, on the
// dispatched body and on the scalar one — at every strip width, on a
// one-entry row and on skewed rows (one column repeated, a hub longer than
// the look-ahead), from C and from 0, with every special value as a row's
// scale, among the column scales and in X.
func TestSpMMRowFormsMatchPerEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const xrows = 12
	scale := append(append([]float32(nil), formSpecials...), probeFloats(xrows-len(formSpecials), 0x9e3779b97f4a7c15)...)
	for w := 1; w <= SpMMStrip; w++ {
		xs := w + 2
		x := probeFloats(xrows*xs, uint64(w)<<1|1)
		for i := range formSpecials {
			x[rng.Intn(len(x))] = formSpecials[i]
		}
		for _, n := range []int{1, 3, 17, 40} {
			cols := make([]int32, n+SpMMStrip/4) // the look-ahead reads past the row
			for k := range cols {
				cols[k] = int32(rng.Intn(xrows))
				if k%3 == 1 {
					cols[k] = cols[k-1] // skewed: a column gathered twice running
				}
			}
			for _, acc := range []bool{false, true} {
				c0 := probeFloats(3+w+3, rng.Uint64()|1)
				for r := range scale {
					for name, row := range map[string]rowKernel{"dispatched": SpMMRow, "scalar": spmmRowScalar} {
						what := fmt.Sprintf("%s w=%d n=%d acc=%v row scale %g", name, w, n, acc, scale[r])
						checkFormsMatchPerEntry(t, what, row, c0, x, xs, xrows, cols, scale, r, n, acc)
					}
				}
			}
		}
	}
}
