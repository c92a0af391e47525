package sparse

import (
	"fmt"
	"sort"

	"mggcn/internal/kernel"
	"mggcn/internal/pool"
	"mggcn/internal/tensor"
)

// SpMM computes C = A*X + beta*C where A is sparse (m x k), X dense (k x n),
// C dense (m x n). beta is either 0 (overwrite) or 1 (accumulate) — the GCN
// pipeline needs no other values, and any other panics. A's values may take
// any of CSR's forms; structure-only A treats entries as 1. Phantom dense
// operands make the call shape-check-only.
func SpMM(a *CSR, x *tensor.Dense, beta float32, c *tensor.Dense) {
	checkSpMMShapes(a, x, beta, c)
	if x.IsPhantom() || c.IsPhantom() {
		return
	}
	spmmRows(a, x, beta == 1, c, 0, a.Rows)
}

// ParallelSpMM is SpMM with output rows split into nnz-balanced chunks
// drawn from the shared worker pool (workers <= 0 caps lanes at
// GOMAXPROCS). Chunk boundaries balance *nonzeros*, not rows: on power-law
// graphs an equal-rows split can hand one lane most of the matrix (a hub
// block's rows are orders of magnitude denser than the tail's),
// serializing the whole multiply behind it. Chunks are oversplit relative
// to the lane cap so idle pool workers steal the tail of a skewed
// multiply. Each output row is written by exactly one chunk with the
// serial kernel's accumulation order, so results are bit-identical to SpMM
// at any worker count and pool state.
func ParallelSpMM(a *CSR, x *tensor.Dense, beta float32, c *tensor.Dense, workers int) {
	checkSpMMShapes(a, x, beta, c)
	if x.IsPhantom() || c.IsPhantom() {
		return
	}
	lanes := workers
	if lanes <= 0 {
		lanes = pool.Size()
	}
	if lanes > a.Rows {
		lanes = a.Rows
	}
	if lanes <= 1 {
		spmmRows(a, x, beta == 1, c, 0, a.Rows)
		return
	}
	chunks := lanes * 4
	if chunks > a.Rows {
		chunks = a.Rows
	}
	bounds := nnzChunkBounds(a, chunks)
	pool.ForChunks(chunks, lanes, func(ch int) {
		if bounds[ch] < bounds[ch+1] {
			spmmRows(a, x, beta == 1, c, bounds[ch], bounds[ch+1])
		}
	})
}

// nnzChunkBounds returns workers+1 row boundaries splitting a's rows into
// chunks of near-equal nonzero count. RowPtr is already the prefix sum of
// per-row nnz, so boundary k is a binary search for k*nnz/workers in it.
// Rows stay contiguous per chunk (each output row is written by exactly one
// worker, and row order inside a chunk is unchanged), so results are
// bit-identical to the serial kernel.
func nnzChunkBounds(a *CSR, workers int) []int {
	bounds := make([]int, workers+1)
	bounds[workers] = a.Rows
	nnz := a.NNZ()
	for k := 1; k < workers; k++ {
		target := nnz * int64(k) / int64(workers)
		// row straddles the target; cut on whichever side of it lands
		// closer (cutting only before would idle a worker at a hub row).
		row := sort.Search(a.Rows, func(i int) bool { return a.RowPtr[i+1] > target })
		if row < a.Rows && target-a.RowPtr[row] >= a.RowPtr[row+1]-target {
			row++
		}
		if row < bounds[k-1] {
			row = bounds[k-1] // empty-row runs: keep boundaries monotone
		}
		bounds[k] = row
	}
	return bounds
}

func checkSpMMShapes(a *CSR, x *tensor.Dense, beta float32, c *tensor.Dense) {
	if a.Cols != x.Rows || c.Rows != a.Rows || c.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: SpMM shape mismatch (%dx%d)*(%dx%d) -> %dx%d",
			a.Rows, a.Cols, x.Rows, x.Cols, c.Rows, c.Cols))
	}
	if beta != 0 && beta != 1 {
		panic(fmt.Sprintf("sparse: SpMM beta must be 0 or 1, got %g", beta))
	}
}

// spmmRows computes output rows [lo,hi) through the dispatched row kernel:
// each row's strip of at most kernel.SpMMStrip columns stays in registers
// while the row's stored entries stream past, starting from C (acc) or from
// 0, and is written once. The kernel is handed the tile's column array from
// the row's first entry to the tile's last, so its look-ahead can prefetch
// the X rows the following output rows gather, and the values in the form A
// holds them: the row's stretch of Vals, its one row scale, or the whole
// column scale. An empty row has nothing to hand over and is cleared or left
// alone here. Per output element the accumulation order is ascending stored
// index, SpMMFlat's order, so results are bit-identical to the flat kernel
// for all finite inputs.
func spmmRows(a *CSR, x *tensor.Dense, acc bool, c *tensor.Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		rc := c.Row(i)
		p, n := a.RowPtr[i], int(a.RowPtr[i+1]-a.RowPtr[i])
		if n == 0 {
			if !acc {
				clear(rc)
			}
			continue
		}
		vals, form := a.Vals, kernel.PerEntry
		switch {
		case vals != nil:
			vals = vals[p:]
		case a.RowScale != nil:
			vals, form = a.RowScale[i:i+1], kernel.RowConst
		case a.ColScale != nil:
			vals, form = a.ColScale, kernel.ByColumn
		}
		cols := a.ColIdx[p:]
		for j0 := 0; j0 < len(rc); j0 += kernel.SpMMStrip {
			j1 := min(j0+kernel.SpMMStrip, len(rc))
			kernel.SpMMRow(rc[j0:j1], x.Data[j0:], x.Stride, x.Rows, cols, vals, form, n, acc)
		}
	}
}

// SpMMFlops returns the floating point operations of one SpMM with the given
// nonzero count and dense width (one multiply + one add per nnz per column).
func SpMMFlops(nnz int64, denseCols int) int64 { return 2 * nnz * int64(denseCols) }
