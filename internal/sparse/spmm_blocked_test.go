package sparse

import (
	"math/rand"
	"testing"

	"mggcn/internal/kernel"
	"mggcn/internal/tensor"
)

// wide is a dense width of several row-kernel strips; the tests below go to
// either side of it so whole strips, a partial last strip and a one-float
// last strip all run.
const wide = 4 * kernel.SpMMStrip

// TestSpMMBitIdenticalToFlat pins the strip kernel's contract: walking the
// feature dimension in register-resident strips may not change a single bit
// relative to the flat reference kernel. Widths straddle a strip boundary;
// beta covers overwrite and accumulate.
func TestSpMMBitIdenticalToFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, width := range []int{1, 3, wide - 1, wide, wide + 1, wide + 37, 2*wide + 5} {
		for _, beta := range []float32{0, 1} {
			a := randomCSR(rng, 23, 17, 0.3, true)
			x := randomDense(rng, 17, width)
			blocked := randomDense(rng, 23, width)
			flat := blocked.Clone()
			SpMM(a, x, beta, blocked)
			SpMMFlat(a, x, beta, flat)
			if !tensor.Equal(blocked, flat, 0) {
				t.Fatalf("width=%d beta=%g: blocked != flat", width, beta)
			}
		}
	}
}

// TestSpMMBitIdenticalToFlatStructureOnly: the Vals == nil tile path (entries
// of 1, odd and zero nonzero counts per row) must match
// the flat structure-only path bit for bit.
func TestSpMMBitIdenticalToFlatStructureOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 31
	var entries []Coo
	for r := 0; r < n; r++ {
		deg := rng.Intn(6) // degree 0 leaves empty rows in the middle
		for d := 0; d < deg; d++ {
			entries = append(entries, Coo{Row: int32(r), Col: int32(rng.Intn(n))})
		}
	}
	a := FromCoo(n, n, entries, false)
	for _, width := range []int{1, wide - 3, wide + 3} {
		x := randomDense(rng, n, width)
		blocked := randomDense(rng, n, width)
		flat := blocked.Clone()
		SpMM(a, x, 1, blocked)
		SpMMFlat(a, x, 1, flat)
		if !tensor.Equal(blocked, flat, 0) {
			t.Fatalf("width=%d: structure-only blocked != flat", width)
		}
	}
}

// TestSpMMBlockedDegenerateShapes: empty matrices, single row/column,
// all-empty rows — beta=0 must still zero the output.
func TestSpMMBlockedDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(33))

	// 1x1 with a single entry.
	one := FromCoo(1, 1, []Coo{{Row: 0, Col: 0, Val: 2}}, true)
	x := tensor.NewDense(1, 1)
	x.Set(0, 0, 3)
	c := tensor.NewDense(1, 1)
	c.Set(0, 0, 7)
	SpMM(one, x, 1, c)
	if c.At(0, 0) != 13 {
		t.Fatalf("1x1 accumulate got %v, want 13", c.At(0, 0))
	}

	// All rows empty: beta=0 must overwrite stale C with zeros in every strip.
	empty := FromCoo(4, 4, nil, true)
	fresh := randomDense(rng, 4, wide+9)
	stale := randomDense(rng, 4, wide+9)
	SpMM(empty, fresh, 0, stale)
	for i, v := range stale.Data {
		if v != 0 {
			t.Fatalf("empty-matrix beta=0 left element %d = %v", i, v)
		}
	}

	// Single column of X (narrower than any vector).
	a := randomCSR(rng, 9, 9, 0.4, true)
	x1 := randomDense(rng, 9, 1)
	blocked := randomDense(rng, 9, 1)
	flat := blocked.Clone()
	SpMM(a, x1, 1, blocked)
	SpMMFlat(a, x1, 1, flat)
	if !tensor.Equal(blocked, flat, 0) {
		t.Fatalf("1-column blocked != flat")
	}
}

// TestParallelSpMMBitIdenticalToFlatWideFeatures runs the full pooled path
// (nnz chunking + column strips) against the flat serial kernel at tolerance
// 0 on a feature width no strip divides.
func TestParallelSpMMBitIdenticalToFlatWideFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := randomCSR(rng, 128, 128, 0.08, true)
	x := randomDense(rng, 128, wide+21)
	flat := tensor.NewDense(128, wide+21)
	SpMMFlat(a, x, 0, flat)
	for _, w := range []int{2, 5, 16} {
		par := tensor.NewDense(128, wide+21)
		ParallelSpMM(a, x, 0, par, w)
		if !tensor.Equal(flat, par, 0) {
			t.Fatalf("workers=%d: pooled blocked SpMM != flat serial", w)
		}
	}
}

// hubHeavyCSR builds a power-law-flavored matrix: a handful of hub rows
// with degree near cols, a long tail of sparse rows, and some empty rows —
// the row-length skew the nnz-balanced chunking and the row kernel's look-ahead
// have to survive.
func hubHeavyCSR(rng *rand.Rand, rows, cols, hubs int, withVals bool) *CSR {
	var entries []Coo
	for i := 0; i < rows; i++ {
		var deg int
		switch {
		case i < hubs:
			deg = cols/2 + rng.Intn(cols/2)
		case i%7 == 0:
			deg = 0 // empty rows interleaved through the tail
		default:
			deg = 1 + rng.Intn(4)
		}
		for d := 0; d < deg; d++ {
			e := Coo{Row: int32(i), Col: int32(rng.Intn(cols)), Val: 1}
			if withVals {
				e.Val = float32(rng.NormFloat64())
			}
			entries = append(entries, e)
		}
	}
	return FromCoo(rows, cols, entries, withVals)
}

// TestSpMMHubHeavyBitIdenticalToFlat runs the blocked serial kernel and the
// pooled one (nnz chunks cut inside and around hub rows, empty-row runs at
// chunk boundaries) against the flat kernel at tolerance 0 on hub-heavy
// matrices: valued and structure-only, overwrite and accumulate, widths on
// both sides of a strip boundary.
func TestSpMMHubHeavyBitIdenticalToFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const n = 96
	for _, withVals := range []bool{true, false} {
		a := hubHeavyCSR(rng, n, n, 5, withVals)
		for _, width := range []int{1, 7, wide - 1, wide + 5, 2*wide + 3} {
			for _, beta := range []float32{0, 1} {
				x := randomDense(rng, n, width)
				c0 := randomDense(rng, n, width)
				flat := c0.Clone()
				SpMMFlat(a, x, beta, flat)
				blocked := c0.Clone()
				SpMM(a, x, beta, blocked)
				if !tensor.Equal(blocked, flat, 0) {
					t.Fatalf("vals=%v width=%d beta=%g: blocked != flat", withVals, width, beta)
				}
				for _, w := range []int{1, 2, 8} {
					par := c0.Clone()
					ParallelSpMM(a, x, beta, par, w)
					if !tensor.Equal(par, flat, 0) {
						t.Fatalf("vals=%v width=%d beta=%g workers=%d: pooled != flat", withVals, width, beta, w)
					}
				}
			}
		}
	}
}
