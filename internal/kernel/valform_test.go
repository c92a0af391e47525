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
	scale := append(append([]float32(nil), formSpecials...), fill(t, xrows-len(formSpecials), 0x9e3779b97f4a7c15)...)
	for w := 1; w <= SpMMStrip; w++ {
		xs := w + 2
		x := fill(t, xrows*xs, uint64(w)<<1|1)
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
				c0 := fill(t, 3+w+3, rng.Uint64()|1)
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

// FuzzSpMMRowModes holds the dispatched row kernel to the scalar one over
// fuzzed strip widths, entry counts, columns (past the row too, where the
// look-ahead reads), value forms and values: the scale's bytes are float32
// bits, so every special value turns up, and they are also written into X.
// Results agree bit for bit but for which NaN survives, which is not part of
// the contract.
func FuzzSpMMRowModes(f *testing.F) {
	f.Add(uint8(63), uint8(2), uint8(3), true, []byte{0, 1, 1, 2, 0}, []byte{0, 0, 0x80, 0x3f, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0}, uint64(1))
	f.Add(uint8(7), uint8(1), uint8(1), false, []byte{2}, []byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0x80, 0xff, 0xff, 0x7f, 0x7f}, uint64(2))
	f.Add(uint8(40), uint8(0), uint8(30), true, make([]byte, 40), []byte{1, 0, 0, 0, 0xdb, 0x0f, 0x49, 0x40}, uint64(3))
	f.Add(uint8(16), uint8(3), uint8(4), false, []byte{1, 0, 1, 0, 1}, []byte{0, 0, 0x20, 0x41}, uint64(4))
	f.Fuzz(func(t *testing.T, width, form, n uint8, acc bool, colBytes, scaleBytes []byte, seed uint64) {
		if len(colBytes) == 0 || len(scaleBytes) < 4 {
			return
		}
		w := 1 + int(width)%SpMMStrip
		scale := make([]float32, min(len(scaleBytes)/4, 64))
		for i := range scale {
			b := scaleBytes[4*i:]
			scale[i] = math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		}
		xrows, xs := len(scale), w+1
		cols := make([]int32, min(len(colBytes), 256))
		for k := range cols {
			cols[k] = int32(colBytes[k]) % int32(xrows)
		}
		x := fill(t, xrows*xs, seed|1)
		for i, v := range scale {
			x[(i*13)%len(x)] = v
		}
		var vals []float32
		vf := ValForm(form % 3)
		switch {
		case form%4 == 3: // ones
		case vf == PerEntry:
			vals = make([]float32, len(cols))
			for k := range vals {
				vals[k] = scale[k%len(scale)]
			}
		case vf == RowConst:
			vals = scale[int(seed%uint64(xrows)):][:1]
		default:
			vals = scale
		}
		rowN := int(n) % (len(cols) + 1)
		c0 := fill(t, 2+w+2, seed>>1|1)
		got, want := append([]float32(nil), c0...), append([]float32(nil), c0...)
		SpMMRow(got[2:2+w], x, xs, xrows, cols, vals, vf, rowN, acc)
		spmmRowScalar(want[2:2+w], x, xs, xrows, cols, vals, vf, rowN, acc)
		for i := range want {
			if g, e := got[i], want[i]; math.Float32bits(g) != math.Float32bits(e) && !(g != g && e != e) {
				t.Fatalf("w=%d form=%d n=%d of %d acc=%v: c[%d] = %x, scalar %x under impl %q",
					w, vf, rowN, len(cols), acc, i-2, math.Float32bits(g), math.Float32bits(e), Impl())
			}
		}
	})
}
