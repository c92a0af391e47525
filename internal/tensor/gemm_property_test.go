package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The extents every GeMM entry point must get right, forced into the random
// shapes below: empty and sub-tile row counts, column counts on either side
// of the 8- and 16-wide vector strips plus the two the workloads train on
// (47 classes, 104 features), and k on either side of the panel boundaries.
var (
	propM = []int{0, 1, 2, 3, 5}
	propN = []int{1, 7, 8, 15, 16, 17, 47, 104}
	propK = []int{0, 1, 2, 63, 64, 65, 257}
)

// gemmCase is one C (m x n) = alpha*op(A)(m x k)*op(B)(k x n) + beta*C.
type gemmCase struct {
	m, k, n     int
	alpha, beta float32
	sparseA     bool // half of A zeroed, as behind a ReLU
}

func (c gemmCase) String() string {
	return fmt.Sprintf("m=%d k=%d n=%d alpha=%g beta=%g sparseA=%v", c.m, c.k, c.n, c.alpha, c.beta, c.sparseA)
}

// gemmCases is the cross product of the forced extents followed by random
// shapes large enough to split into several parallel row ranges; alpha, beta
// and the sparsity of A are drawn per case.
func gemmCases(rng *rand.Rand) []gemmCase {
	alphas, betas := []float32{1, 1.5}, []float32{0, 1, 0.5}
	var cases []gemmCase
	add := func(m, k, n int) {
		cases = append(cases, gemmCase{m, k, n, alphas[rng.Intn(2)], betas[rng.Intn(3)], rng.Intn(2) == 0})
	}
	for _, m := range propM {
		for _, k := range propK {
			for _, n := range propN {
				add(m, k, n)
			}
		}
	}
	for i := 0; i < 120; i++ {
		add(rng.Intn(70), rng.Intn(300), 1+rng.Intn(130))
	}
	return cases
}

// window is the rows x cols view one row down and two columns in from the
// corner of a (rows+2) x (cols+3) parent: a RowSlice of a ColSlice with
// Stride > Cols and a guard band on every side. An empty matrix has no such
// view (an empty ColSlice cannot be row-indexed) and is its own parent.
func window(parent *Dense, rows, cols int) *Dense {
	if rows == 0 || cols == 0 {
		return parent
	}
	return parent.RowSlice(1, rows+1).ColSlice(2, cols+2)
}

// randomWindowed returns an N(0,1) parent and its window.
func randomWindowed(rng *rand.Rand, rows, cols int) (view, parent *Dense) {
	if rows == 0 || cols == 0 {
		parent = NewDense(rows, cols)
	} else {
		parent = randomDense(rng, rows+2, cols+3)
	}
	return window(parent, rows, cols), parent
}

// bitsEqual is Equal at tolerance 0 made strict: -0 != +0, NaN == NaN.
func bitsEqual(a, b *Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float32bits(ra[j]) != math.Float32bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// TestGemmPropertyBitIdentical is the differential net under the dense
// kernels: on strided views of every awkward shape, with alpha and beta off
// their fast values and a ReLU-sparse A, every entry point of a product
// family gives the bits of the flat oracle — the sequential kernel, and the
// parallel one at every lane count. The comparison covers C's whole parent,
// so a write outside the view is a failure too.
func TestGemmPropertyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, tc := range gemmCases(rng) {
		a, _ := randomWindowed(rng, tc.m, tc.k)
		if tc.sparseA {
			for i := 0; i < a.Rows; i++ {
				for j, row := 0, a.Row(i); j < len(row); j++ {
					if rng.Intn(2) == 0 {
						row[j] = 0
					}
				}
			}
		}
		b, _ := randomWindowed(rng, tc.k, tc.n)
		at, _ := randomWindowed(rng, tc.k, tc.m)
		at.CopyFrom(a.Transpose())
		bt, _ := randomWindowed(rng, tc.n, tc.k)
		bt.CopyFrom(b.Transpose())
		_, c0 := randomWindowed(rng, tc.m, tc.n)

		run := func(op func(c *Dense)) *Dense {
			p := c0.Clone()
			op(window(p, tc.m, tc.n))
			return p
		}
		check := func(name string, want *Dense, op func(c *Dense)) {
			t.Helper()
			if got := run(op); !bitsEqual(got, want) {
				t.Fatalf("%s: %s differs from its reference", tc, name)
			}
		}

		flat := run(func(c *Dense) { GemmFlat(tc.alpha, a, b, tc.beta, c) })
		check("Gemm", flat, func(c *Dense) { Gemm(tc.alpha, a, b, tc.beta, c) })
		flatTA := run(func(c *Dense) { GemmFlat(tc.alpha, at.Transpose(), b, tc.beta, c) })
		check("GemmTA", flatTA, func(c *Dense) { GemmTA(tc.alpha, at, b, tc.beta, c) })
		flatTB := run(func(c *Dense) { GemmFlat(tc.alpha, a, bt.Transpose(), tc.beta, c) })
		check("GemmTB", flatTB, func(c *Dense) { GemmTB(tc.alpha, a, bt, tc.beta, c) })
		for w := 1; w <= 8; w++ {
			check(fmt.Sprintf("ParallelGemm/workers=%d", w), flat,
				func(c *Dense) { ParallelGemm(tc.alpha, a, b, tc.beta, c, w) })
			check(fmt.Sprintf("ParallelGemmTA/workers=%d", w), flatTA,
				func(c *Dense) { ParallelGemmTA(tc.alpha, at, b, tc.beta, c, w) })
			check(fmt.Sprintf("ParallelGemmTB/workers=%d", w), flatTB,
				func(c *Dense) { ParallelGemmTB(tc.alpha, a, bt, tc.beta, c, w) })
		}
	}
}

// TestGemmAccumulatesOntoNegativeZero: C preloaded with -0, beta = 1 and an
// all-zero A. The oracle performs every -0 + 0*b and ends on +0; a kernel
// that skips zero tiles of A would leave -0.
func TestGemmAccumulatesOntoNegativeZero(t *testing.T) {
	a, b := NewDense(5, 9), NewDense(9, 17)
	b.Fill(1)
	c := NewDense(5, 17)
	c.Fill(float32(math.Copysign(0, -1)))
	flat := c.Clone()
	GemmFlat(1, a, b, 1, flat)
	Gemm(1, a, b, 1, c)
	if !bitsEqual(c, flat) {
		t.Fatalf("Gemm leaves %#08x where GemmFlat writes %#08x", math.Float32bits(c.Data[0]), math.Float32bits(flat.Data[0]))
	}
}
