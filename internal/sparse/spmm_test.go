package sparse

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mggcn/internal/tensor"
)

func randomDense(rng *rand.Rand, rows, cols int) *tensor.Dense {
	d := tensor.NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = float32(rng.NormFloat64())
	}
	return d
}

// naiveSpMM multiplies via the densified matrix.
func naiveSpMM(a *CSR, x *tensor.Dense, beta float32, c *tensor.Dense) {
	ad := a.ToDenseRows()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			var s float32
			for p := 0; p < a.Cols; p++ {
				s += ad[i][p] * x.At(p, j)
			}
			c.Set(i, j, s+beta*c.At(i, j))
		}
	}
}

func TestSpMMMatchesNaive(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(12)+1, rng.Intn(12)+1, rng.Intn(8)+1
		a := randomCSR(rng, m, k, 0.4, true)
		x := randomDense(rng, k, n)
		c1 := randomDense(rng, m, n)
		c2 := c1.Clone()
		beta := float32(rng.Intn(2))
		SpMM(a, x, beta, c1)
		naiveSpMM(a, x, beta, c2)
		return tensor.MaxAbsDiff(c1, c2) < 1e-4
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMStructureOnlySumsNeighbors(t *testing.T) {
	// Structure-only SpMM must behave like entries of 1.
	a := FromCoo(2, 3, []Coo{{Row: 0, Col: 0}, {Row: 0, Col: 2}, {Row: 1, Col: 1}}, false)
	x := tensor.NewDense(3, 1)
	x.Set(0, 0, 10)
	x.Set(1, 0, 20)
	x.Set(2, 0, 30)
	c := tensor.NewDense(2, 1)
	SpMM(a, x, 0, c)
	if c.At(0, 0) != 40 || c.At(1, 0) != 20 {
		t.Fatalf("got %v / %v, want 40 / 20", c.At(0, 0), c.At(1, 0))
	}
}

func TestSpMMAccumulate(t *testing.T) {
	a := FromCoo(1, 1, []Coo{{Row: 0, Col: 0, Val: 2}}, true)
	x := tensor.NewDense(1, 1)
	x.Set(0, 0, 3)
	c := tensor.NewDense(1, 1)
	c.Set(0, 0, 100)
	SpMM(a, x, 1, c)
	if c.At(0, 0) != 106 {
		t.Fatalf("accumulate got %v, want 106", c.At(0, 0))
	}
}

func TestParallelSpMMMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomCSR(rng, 64, 64, 0.1, true)
	x := randomDense(rng, 64, 16)
	seq := tensor.NewDense(64, 16)
	SpMM(a, x, 0, seq)
	for _, w := range []int{1, 2, 7, 64, 200} {
		par := tensor.NewDense(64, 16)
		ParallelSpMM(a, x, 0, par, w)
		if tensor.MaxAbsDiff(seq, par) > 1e-5 {
			t.Fatalf("workers=%d mismatch %g", w, tensor.MaxAbsDiff(seq, par))
		}
	}
}

func TestNnzChunkBounds(t *testing.T) {
	// A hub matrix: row 0 holds half the nonzeros. Equal-rows chunking would
	// give worker 0 rows [0, n/2); nnz balancing must cut right after the hub.
	n := 64
	var entries []Coo
	for c := 0; c < n; c++ {
		entries = append(entries, Coo{Row: 0, Col: int32(c), Val: 1})
	}
	for r := 1; r < n; r++ {
		entries = append(entries, Coo{Row: int32(r), Col: int32(r % n), Val: 1})
	}
	a := FromCoo(n, n, entries, true)
	bounds := nnzChunkBounds(a, 2)
	if len(bounds) != 3 || bounds[0] != 0 || bounds[2] != n {
		t.Fatalf("bounds = %v, want endpoints 0 and %d", bounds, n)
	}
	if bounds[1] != 1 {
		t.Fatalf("mid boundary = %d, want 1 (cut right after the hub row)", bounds[1])
	}

	// Boundaries must be monotone and partition all rows for any worker
	// count, including workers > rows with empty rows present.
	rng := rand.New(rand.NewSource(9))
	b := randomCSR(rng, 40, 40, 0.05, false)
	for _, w := range []int{1, 2, 3, 7, 39, 40} {
		bs := nnzChunkBounds(b, w)
		if bs[0] != 0 || bs[len(bs)-1] != b.Rows {
			t.Fatalf("workers=%d: bounds %v do not span all rows", w, bs)
		}
		var nnz int64
		for k := 0; k < w; k++ {
			if bs[k] > bs[k+1] {
				t.Fatalf("workers=%d: non-monotone bounds %v", w, bs)
			}
			for r := bs[k]; r < bs[k+1]; r++ {
				nnz += b.RowNNZ(r)
			}
		}
		if nnz != b.NNZ() {
			t.Fatalf("workers=%d: chunks cover %d nnz of %d", w, nnz, b.NNZ())
		}
	}
}

func TestParallelSpMMPowerLawBitIdentical(t *testing.T) {
	// nnz-balanced chunks must not change results at all: each output row
	// has exactly one writer and row-internal order is untouched.
	rng := rand.New(rand.NewSource(11))
	n := 96
	var entries []Coo
	for r := 0; r < n; r++ {
		deg := 1 + rng.Intn(3)
		if r%17 == 0 {
			deg = n / 2 // hubs
		}
		for d := 0; d < deg; d++ {
			entries = append(entries, Coo{Row: int32(r), Col: int32(rng.Intn(n)), Val: float32(rng.NormFloat64())})
		}
	}
	a := FromCoo(n, n, entries, true)
	x := randomDense(rng, n, 24)
	seq := tensor.NewDense(n, 24)
	SpMM(a, x, 0, seq)
	for _, w := range []int{2, 3, 8, 96} {
		par := tensor.NewDense(n, 24)
		ParallelSpMM(a, x, 0, par, w)
		if !tensor.Equal(seq, par, 0) {
			t.Fatalf("workers=%d: parallel result not bit-identical to sequential", w)
		}
	}
}

func TestSpMMShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	a := FromCoo(2, 2, nil, false)
	SpMM(a, tensor.NewDense(3, 1), 0, tensor.NewDense(2, 1))
}

// TestSpMMRejectsOtherBeta: the kernels implement beta = 0 and beta = 1 only;
// any other value used to be taken for 1 (SpMM(a, x, 0.5, c) returned A*X + C)
// and is now an invariant panic that names it, from every entry point and on
// phantom operands too.
func TestSpMMRejectsOtherBeta(t *testing.T) {
	a := FromCoo(2, 2, []Coo{{Row: 0, Col: 1, Val: 3}}, true)
	x, c := tensor.NewDense(2, 1), tensor.NewDense(2, 1)
	for name, call := range map[string]func(){
		"SpMM":         func() { SpMM(a, x, 0.5, c) },
		"SpMMFlat":     func() { SpMMFlat(a, x, 0.5, c) },
		"ParallelSpMM": func() { ParallelSpMM(a, x, 0.5, c, 2) },
		"phantom":      func() { SpMM(a, tensor.NewPhantom(2, 1), 0.5, tensor.NewPhantom(2, 1)) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "beta") || !strings.Contains(msg, "0.5") {
					t.Errorf("%s with beta = 0.5: panic %q does not name the value", name, msg)
				}
			}()
			call()
		}()
	}
}

func TestSpMMPhantomNoOp(t *testing.T) {
	a := FromCoo(2, 2, []Coo{{Row: 0, Col: 1}}, false)
	SpMM(a, tensor.NewPhantom(2, 4), 0, tensor.NewPhantom(2, 4))
	ParallelSpMM(a, tensor.NewPhantom(2, 4), 0, tensor.NewPhantom(2, 4), 4)
}

func TestSpMMFlops(t *testing.T) {
	if SpMMFlops(10, 4) != 80 {
		t.Fatalf("SpMMFlops(10,4)=%d", SpMMFlops(10, 4))
	}
}

func TestStagedSpMMEqualsWhole(t *testing.T) {
	// The multi-stage tiled product sum_j A[:,j-tile] * X[j-tile] must equal
	// the whole SpMM — the algebraic identity behind MG-GCN's distributed SpMM.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(16) + 4
		d := rng.Intn(6) + 1
		parts := rng.Intn(3) + 2
		a := randomCSR(rng, n, n, 0.3, true)
		x := randomDense(rng, n, d)
		whole := tensor.NewDense(n, d)
		SpMM(a, x, 0, whole)
		staged := tensor.NewDense(n, d)
		bounds := make([]int, parts+1)
		for i := 0; i <= parts; i++ {
			bounds[i] = i * n / parts
		}
		for j := 0; j < parts; j++ {
			tile := a.SubMatrix(0, n, bounds[j], bounds[j+1])
			xs := x.RowSlice(bounds[j], bounds[j+1])
			if tile.Cols == 0 {
				continue
			}
			SpMM(tile, xs, 1, staged)
		}
		return tensor.MaxAbsDiff(whole, staged) < 1e-4
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
