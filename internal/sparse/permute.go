package sparse

import "fmt"

// PermuteSymmetric returns P*A*Pᵀ for the permutation perm, where perm[old]
// = new: row/column old of A becomes row/column perm[old] of the result.
// This is the §5.2 random-permutation load balancing primitive.
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

// InversePerm returns the inverse permutation of perm (perm[old]=new ->
// inv[new]=old). It panics if perm is not a bijection.
func InversePerm(perm []int32) []int32 {
	inv := make([]int32, len(perm))
	seen := make([]bool, len(perm))
	for old, nw := range perm {
		if int(nw) < 0 || int(nw) >= len(perm) || seen[nw] {
			panic(fmt.Sprintf("sparse: perm is not a bijection at %d -> %d", old, nw))
		}
		seen[nw] = true
		inv[nw] = int32(old)
	}
	return inv
}
