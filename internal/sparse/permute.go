package sparse

import (
	"fmt"

	"mggcn/internal/pool"
)

// PermutedTiles returns the grid of tiles that bounds cuts P·A·Pᵀ and its
// transpose into, for the permutation perm (perm[old] = new, §5.2; nil keeps
// the natural order): am[i][j] holds rows [bounds[i], bounds[i+1]) and
// columns [bounds[j], bounds[j+1]) of P·A·Pᵀ, at[i][j] the same of
// (P·A·Pᵀ)ᵀ = P·Aᵀ·Pᵀ, each with local indices, exactly what SubMatrix cuts
// from the permuted matrices; the tiles of one column block of at share a
// buffer, each slice capped at its own length. Values keep A's form. A's
// row or column scale is permuted once, and every tile holds the slice of
// it that its rows or columns cover: for FactoredInDegree's Â that is n
// floats for the whole grid, where values per entry are one per nonzero in
// each orientation. Scratch is O(n): one column block of at is written at a
// time, and am's tiles are transposes of their cache-sized mirrors, am[i][j]
// of at[j][i], made on a second pool lane. Without values per entry, an
// am tile whose structure is its twin at[i][j]'s — every tile, when A's
// structure is symmetric — shares that structure and is never built.
func PermutedTiles(a *CSR, perm []int32, bounds []int) (at, am [][]*CSR) {
	n, blocks := a.Rows, len(bounds)-1
	if a.Cols != n {
		panic(fmt.Sprintf("sparse: symmetric permutation of non-square %dx%d", a.Rows, a.Cols))
	}
	for i := 1; i <= blocks; i++ {
		if bounds[i] < bounds[i-1] {
			panic(fmt.Sprintf("sparse: tile bounds %v not monotone", bounds))
		}
	}
	if blocks < 1 || bounds[0] != 0 || bounds[blocks] != n {
		panic(fmt.Sprintf("sparse: tile bounds %v do not cover %d rows", bounds, n))
	}
	if perm == nil {
		perm = make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
	} else if len(perm) != n {
		panic(fmt.Sprintf("sparse: permutation length %d, want %d", len(perm), n))
	}
	inv := InversePerm(perm) // panics unless perm is a bijection
	// at's tiles are cut from the transpose, so A's column scale is their
	// row scale and the other way round.
	atRowScale, atColScale := Permuted(a.ColScale, perm), Permuted(a.RowScale, perm)
	at, am = make([][]*CSR, blocks), make([][]*CSR, blocks)
	for i := range at {
		at[i], am[i] = make([]*CSR, blocks), make([]*CSR, blocks)
	}
	// Entry (u, w) of A is entry (perm[w], perm[u]) of P·Aᵀ·Pᵀ. Column block
	// j's entries come from A's rows u with perm[u] in it: count them per
	// destination row, size the tiles, then scatter them visiting the rows
	// in ascending perm[u], so every tile row receives its columns sorted.
	// A second lane makes the am tiles of each column block of at as soon
	// as their mirrors are written: block j completes the pairs (i, j) and
	// (j, i) for i <= j. written has a slot per column block: on a single
	// lane the scatter runs to its end first.
	written := make(chan int, blocks)
	pool.ForChunks(2, 2, func(lane int) {
		if lane == 1 {
			cur := make([]int64, n+1)
			for j := range written {
				for i := 0; i <= j; i++ {
					am[i][j] = mirrorTile(at[j][i], at[i][j], cur)
					if i < j {
						am[j][i] = mirrorTile(at[i][j], at[j][i], cur)
					}
				}
			}
			return
		}
		cur := make([]int64, n+1)
		for j := 0; j < blocks; j++ {
			c0, c1 := bounds[j], bounds[j+1]
			for nw := c0; nw < c1; nw++ {
				u := inv[nw]
				for _, w := range a.ColIdx[a.RowPtr[u]:a.RowPtr[u+1]] {
					cur[perm[w]]++
				}
			}
			// The column block's tiles share one buffer, row after row, so
			// cur[r] turns from row r's count into its start in the buffer.
			var nnz int64
			for r, c := range cur {
				cur[r], nnz = nnz, nnz+c
			}
			cols, vals := make([]int32, nnz), []float32(nil)
			if a.Vals != nil {
				vals = make([]float32, nnz)
			}
			for i := range at {
				r0, r1 := bounds[i], bounds[i+1]
				lo, hi := cur[r0], cur[r1]
				t := &CSR{Rows: r1 - r0, Cols: c1 - c0, RowPtr: make([]int64, r1-r0+1), ColIdx: cols[lo:hi:hi]}
				if vals != nil {
					t.Vals = vals[lo:hi:hi]
				}
				if atRowScale != nil {
					t.RowScale = atRowScale[r0:r1:r1]
				}
				if atColScale != nil {
					t.ColScale = atColScale[c0:c1:c1]
				}
				for r := r0; r <= r1; r++ {
					t.RowPtr[r-r0] = cur[r] - lo
				}
				at[i][j] = t
			}
			for nw := c0; nw < c1; nw++ {
				u := inv[nw]
				for k := a.RowPtr[u]; k < a.RowPtr[u+1]; k++ {
					r := perm[a.ColIdx[k]]
					pos := cur[r]
					cur[r]++
					cols[pos] = int32(nw - c0)
					if vals != nil {
						vals[pos] = a.Vals[k]
					}
				}
			}
			clear(cur)
			written <- j
		}
		close(written)
	})
	return at, am
}

// Permuted returns s with element old moved to perm[old] (nil stays nil).
func Permuted[T any](s []T, perm []int32) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s))
	for old, x := range s {
		out[perm[old]] = x
	}
	return out
}

// mirrorTile returns m's transpose, as twin's structure with m's scales
// swapped when the two are the same and m has no values per entry, so that
// a symmetric pair of tiles stores one structure. cur is scratch of at least
// m.Cols entries.
func mirrorTile(m, twin *CSR, cur []int64) *CSR {
	if m.Vals != nil || !transposes(m, twin, cur) {
		return m.Transpose()
	}
	return &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: twin.RowPtr, ColIdx: twin.ColIdx, RowScale: m.ColScale, ColScale: m.RowScale}
}

// transposes reports whether t's structure is m's transposed: walking m's
// rows in order, each entry (r, c) must be the next stored in t's row c. It
// is Transpose's scatter with the stores turned into compares.
func transposes(m, t *CSR, cur []int64) bool {
	if t.Rows != m.Cols || t.Cols != m.Rows || t.NNZ() != m.NNZ() {
		return false
	}
	copy(cur, t.RowPtr[:t.Rows])
	for r := 0; r < m.Rows; r++ {
		for _, c := range m.ColIdx[m.RowPtr[r]:m.RowPtr[r+1]] {
			pos := cur[c]
			if pos == t.RowPtr[c+1] || t.ColIdx[pos] != int32(r) {
				return false
			}
			cur[c]++
		}
	}
	return true
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
