package sparse

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mggcn/internal/tensor"
)

// PermuteSymmetric returns P*A*Pᵀ for the permutation perm, where perm[old]
// = new: row/column old of A becomes row/column perm[old] of the result.
// It is the oracle PermutedTiles is held to: its tiles are SubMatrix cuts
// of this result and of its Transpose.
func PermuteSymmetric(a *CSR, perm []int32) *CSR {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: symmetric permutation of non-square %dx%d", a.Rows, a.Cols))
	}
	if len(perm) != a.Rows {
		panic(fmt.Sprintf("sparse: permutation length %d, want %d", len(perm), a.Rows))
	}
	InversePerm(perm) // panics unless perm is a bijection
	// One counting scatter builds (P*A*Pᵀ)ᵀ: entry (old, c) goes to row
	// perm[c], column perm[old]. Transpose's own counting pass then visits
	// those rows in ascending order, so it yields P*A*Pᵀ with every row's
	// columns ascending, whatever order the scatter left them in.
	n, nnz := a.Rows, a.NNZ()
	t := &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+2), ColIdx: make([]int32, nnz)}
	if a.Vals != nil {
		t.Vals = make([]float32, nnz)
	}
	// The cursors live in RowPtr one slot ahead, as in TransposeInto.
	for _, c := range a.ColIdx[:nnz] {
		t.RowPtr[perm[c]+2]++
	}
	for r := 0; r < n; r++ {
		t.RowPtr[r+2] += t.RowPtr[r+1]
	}
	for old, nw := range perm {
		for k := a.RowPtr[old]; k < a.RowPtr[old+1]; k++ {
			r := perm[a.ColIdx[k]]
			pos := t.RowPtr[r+1]
			t.RowPtr[r+1]++
			t.ColIdx[pos] = nw
			if t.Vals != nil {
				t.Vals[pos] = a.Vals[k]
			}
		}
	}
	t.RowPtr = t.RowPtr[:n+1]
	return t.Transpose()
}

func randPerm32(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

func TestPermuteSymmetricIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 8, 8, 0.3, true)
	id := make([]int32, 8)
	for i := range id {
		id[i] = int32(i)
	}
	p := PermuteSymmetric(a, id)
	da, dp := a.ToDenseRows(), p.ToDenseRows()
	for i := range da {
		for j := range da[i] {
			if da[i][j] != dp[i][j] {
				t.Fatalf("identity permutation changed (%d,%d)", i, j)
			}
		}
	}
}

func TestPermuteSymmetricMovesEntries(t *testing.T) {
	// A[u][v] must land at [perm[u]][perm[v]].
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		a := randomCSR(rng, n, n, 0.4, true)
		perm := randPerm32(rng, n)
		p := PermuteSymmetric(a, perm)
		if p.Validate() != nil {
			return false
		}
		da, dp := a.ToDenseRows(), p.ToDenseRows()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if da[u][v] != dp[perm[u]][perm[v]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutePreservesNNZAndVals(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomCSR(rng, 12, 12, 0.25, true)
	perm := randPerm32(rng, 12)
	p := PermuteSymmetric(a, perm)
	if p.NNZ() != a.NNZ() {
		t.Fatalf("nnz changed %d -> %d", a.NNZ(), p.NNZ())
	}
	var sa, sp float64
	for _, v := range a.Vals {
		sa += float64(v)
	}
	for _, v := range p.Vals {
		sp += float64(v)
	}
	if diff := sa - sp; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("value mass changed %g -> %g", sa, sp)
	}
}

func TestPermuteStructureOnly(t *testing.T) {
	a := FromCoo(3, 3, []Coo{{Row: 0, Col: 2}, {Row: 1, Col: 0}}, false)
	p := PermuteSymmetric(a, []int32{2, 0, 1})
	if p.Vals != nil {
		t.Fatalf("structure-only permutation grew values")
	}
	d := p.ToDenseRows()
	if d[2][1] != 1 || d[0][2] != 1 {
		t.Fatalf("entries misplaced: %v", d)
	}
}

func TestPermuteNonBijectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	a := FromCoo(3, 3, nil, false)
	PermuteSymmetric(a, []int32{0, 0, 1})
}

func TestPermuteNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	PermuteSymmetric(FromCoo(2, 3, nil, false), []int32{0, 1})
}

func TestInversePermRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		perm := randPerm32(rng, n)
		inv := InversePerm(perm)
		for i := int32(0); int(i) < n; i++ {
			if inv[perm[i]] != i || perm[inv[i]] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutedSpMMEquivalence(t *testing.T) {
	// (P A Pᵀ) (P X) == P (A X): permuting the system does not change the
	// answer — the correctness basis of §5.2 load balancing.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := rng.Intn(12)+2, rng.Intn(5)+1
		a := randomCSR(rng, n, n, 0.35, true)
		x := randomDense(rng, n, d)
		perm := randPerm32(rng, n)
		// Unpermuted product.
		c := tensor.NewDense(n, d)
		SpMM(a, x, 0, c)
		// Permuted product.
		pa := PermuteSymmetric(a, perm)
		px := tensor.NewDense(n, d)
		for old := 0; old < n; old++ {
			copy(px.Row(int(perm[old])), x.Row(old))
		}
		pc := tensor.NewDense(n, d)
		SpMM(pa, px, 0, pc)
		// Un-permute the result and compare.
		back := tensor.NewDense(n, d)
		for old := 0; old < n; old++ {
			copy(back.Row(old), pc.Row(int(perm[old])))
		}
		return tensor.MaxAbsDiff(c, back) < 1e-4
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
