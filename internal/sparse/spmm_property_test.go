package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mggcn/internal/tensor"
)

// The dense widths every SpMM entry point must get right: one column, both
// sides of every 8-float vector boundary a 64-float strip has, both sides of
// the strip itself, the two widths the workloads train on that no vector
// divides (47 classes, 104 features), and several strips plus a remainder.
var propWidths = []int{1, 7, 8, 9, 47, 63, 64, 65, 104, 128, 257}

// skewedCSR is a rows x cols tile with the shapes a GCN block has and a
// uniform random matrix does not: every fifth column is all-zero, about a
// quarter of the rows are empty, row 3 is a hub holding half the stored
// entries, and the rest hold one to three. Columns are duplicate-free and
// ascending within a row, as FromCoo emits them.
func skewedCSR(rng *rand.Rand, rows, cols int, valued bool) *CSR {
	var usable []int
	for c := 0; c < cols; c++ {
		if c%5 != 0 {
			usable = append(usable, c)
		}
	}
	var entries []Coo
	row := func(r, deg int) {
		for _, p := range rng.Perm(len(usable))[:deg] {
			entries = append(entries, Coo{Row: int32(r), Col: int32(usable[p]), Val: float32(rng.NormFloat64())})
		}
	}
	const hub = 3
	for r := 0; r < rows; r++ {
		if r != hub && rng.Intn(4) != 0 {
			row(r, 1+rng.Intn(3))
		}
	}
	row(hub, min(len(entries), len(usable)))
	return FromCoo(rows, cols, entries, valued)
}

// valueForms are the forms a tile's values take (see CSR).
var valueForms = []string{"vals", "ones", "row scale", "col scale"}

// skewedScaled is skewedCSR with its values in form: one per entry, none, or
// an N(0,1) row or column scale holding a zero.
func skewedScaled(rng *rand.Rand, rows, cols int, form string) *CSR {
	a := skewedCSR(rng, rows, cols, form == "vals")
	scale := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
		s[rng.Intn(n)] = 0
		return s
	}
	switch form {
	case "row scale":
		a.RowScale = scale(rows)
	case "col scale":
		a.ColScale = scale(cols)
	}
	return a
}

// window is the rows x cols view one row down and two columns in from the
// corner of a (rows+2) x (cols+3) parent: a RowSlice of a ColSlice with
// Stride > Cols and a guard band on every side.
func window(parent *tensor.Dense, rows, cols int) *tensor.Dense {
	return parent.RowSlice(1, rows+1).ColSlice(2, cols+2)
}

// randomWindowed returns an N(0,1) parent and its window.
func randomWindowed(rng *rand.Rand, rows, cols int) (view, parent *tensor.Dense) {
	parent = randomDense(rng, rows+2, cols+3)
	return window(parent, rows, cols), parent
}

// sameBits is Equal at tolerance 0 made strict: -0 != +0, and a NaN equals
// any NaN (which payload survives NaN + NaN is the adder's operand order,
// not part of any kernel's contract).
func sameBits(a, b *tensor.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float32bits(ra[j]) != math.Float32bits(rb[j]) && !(ra[j] != ra[j] && rb[j] != rb[j]) {
				return false
			}
		}
	}
	return true
}

// checkSpMMAgree runs SpMMFlat, SpMM and ParallelSpMM at one to eight lanes
// on clones of C's parent and requires the same bits from all of them over
// the whole parent, so a write outside the view fails too.
func checkSpMMAgree(t *testing.T, label string, a *CSR, x *tensor.Dense, beta float32, c0 *tensor.Dense) {
	t.Helper()
	run := func(op func(c *tensor.Dense)) *tensor.Dense {
		p := c0.Clone()
		op(window(p, a.Rows, x.Cols))
		return p
	}
	flat := run(func(c *tensor.Dense) { SpMMFlat(a, x, beta, c) })
	if got := run(func(c *tensor.Dense) { SpMM(a, x, beta, c) }); !sameBits(got, flat) {
		t.Fatalf("%s: SpMM != SpMMFlat", label)
	}
	for lanes := 1; lanes <= 8; lanes++ {
		if got := run(func(c *tensor.Dense) { ParallelSpMM(a, x, beta, c, lanes) }); !sameBits(got, flat) {
			t.Fatalf("%s: ParallelSpMM at %d lanes != SpMMFlat", label, lanes)
		}
	}
}

// TestSpMMPropertyBitIdentical is the differential net under the sparse
// kernel: on skewed tiles, in every value form, overwriting and
// accumulating, with X and C strided views inside a guard band, the
// sequential kernel and the pooled one at every lane count give the bits of
// the flat oracle at every width.
func TestSpMMPropertyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, width := range propWidths {
		for _, form := range valueForms {
			for _, beta := range []float32{0, 1} {
				a := skewedScaled(rng, 37, 97, form)
				x, _ := randomWindowed(rng, a.Cols, width)
				_, c0 := randomWindowed(rng, a.Rows, width)
				checkSpMMAgree(t, fmt.Sprintf("width=%d values=%s beta=%g", width, form, beta), a, x, beta, c0)
			}
		}
	}
}

// TestSpMMPropertyNonFinite: NaN and both infinities in X, and in a scale,
// reach the same elements of C from every entry point (Inf - Inf and 0 * Inf
// included), and with beta = 0 a NaN already in C does not survive.
func TestSpMMPropertyNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0}
	for _, width := range propWidths {
		for _, form := range valueForms {
			for _, beta := range []float32{0, 1} {
				a := skewedScaled(rng, 37, 97, form)
				if a.Vals != nil {
					a.Vals[rng.Intn(len(a.Vals))] = 0
				}
				for _, s := range [][]float32{a.RowScale, a.ColScale} {
					if s != nil {
						s[rng.Intn(len(s))], s[rng.Intn(len(s))] = specials[0], specials[1+rng.Intn(2)]
					}
				}
				x, _ := randomWindowed(rng, a.Cols, width)
				for n := 0; n < 12; n++ {
					x.Set(rng.Intn(x.Rows), rng.Intn(width), specials[n%len(specials)])
				}
				_, c0 := randomWindowed(rng, a.Rows, width)
				window(c0, a.Rows, width).Set(rng.Intn(a.Rows), rng.Intn(width), specials[0])
				checkSpMMAgree(t, fmt.Sprintf("width=%d values=%s beta=%g", width, form, beta), a, x, beta, c0)
			}
		}
	}
}

// TestSpMMPropertyTransposed covers the backward tiles: TransposeInto (into
// one reused, warmed destination) followed by SpMM equals the definition of
// Aᵀ·G + beta·C written out over the dense form of A — each element starts
// from C or 0 and adds a[r][i]*g[r][j] for the stored r ascending — bit for
// bit, over C's whole parent. A row scale turns into a column scale and the
// other way round.
func TestSpMMPropertyTransposed(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	at := &CSR{}
	for _, width := range propWidths {
		for _, form := range valueForms {
			for _, beta := range []float32{0, 1} {
				a := skewedScaled(rng, 41, 53, form)
				a.TransposeInto(at)
				if err := at.Validate(); err != nil {
					t.Fatal(err)
				}
				g, _ := randomWindowed(rng, a.Rows, width)
				_, c0 := randomWindowed(rng, a.Cols, width)
				got, want := c0.Clone(), c0.Clone()
				SpMM(at, g, beta, window(got, a.Cols, width))
				wc, ad := window(want, a.Cols, width), a.ToDenseRows()
				for i := 0; i < a.Cols; i++ {
					for j := 0; j < width; j++ {
						s := beta * wc.At(i, j)
						if beta == 0 {
							s = 0
						}
						for r := 0; r < a.Rows; r++ {
							if ad[r][i] != 0 {
								s += ad[r][i] * g.At(r, j)
							}
						}
						wc.Set(i, j, s)
					}
				}
				if !sameBits(got, want) {
					t.Fatalf("width=%d values=%s beta=%g: SpMM(TransposeInto(A)) != dense Aᵀ·G", width, form, beta)
				}
			}
		}
	}
}
