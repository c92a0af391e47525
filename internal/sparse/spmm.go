package sparse

import (
	"fmt"
	"sort"

	"mggcn/internal/kernel"
	"mggcn/internal/pool"
	"mggcn/internal/tensor"
)

// spmmColTile is the feature-dimension tile of the blocked SpMM: C-row
// segments of this many columns stay resident (registers + L1) while the
// gathered X rows stream past, so wide-feature multiplies (input layers,
// hidden 512) never evict the accumulator between nonzeros. 256 floats =
// 1 KB per row segment. Any tile yields bit-identical results because
// column segmentation never changes the per-element accumulation order.
const spmmColTile = 256

// SpMM computes C = A*X + beta*C where A is sparse (m x k), X dense (k x n),
// C dense (m x n). beta is either 0 (overwrite) or 1 (accumulate); the GCN
// pipeline needs no other values. Structure-only A treats entries as 1.
// Phantom dense operands make the call shape-check-only.
func SpMM(a *CSR, x *tensor.Dense, beta float32, c *tensor.Dense) {
	checkSpMMShapes(a, x, c)
	if x.IsPhantom() || c.IsPhantom() {
		return
	}
	spmmRows(a, x, beta, c, 0, a.Rows)
}

// SpMMFlat is the pre-blocking reference kernel (flat row loop, one full-
// width axpy per nonzero), retained as the oracle for the blocked kernel's
// bit-identity tables and as the microbenchmark baseline. Not for
// production call sites — SpMM is strictly faster.
func SpMMFlat(a *CSR, x *tensor.Dense, beta float32, c *tensor.Dense) {
	checkSpMMShapes(a, x, c)
	if x.IsPhantom() || c.IsPhantom() {
		return
	}
	for i := 0; i < a.Rows; i++ {
		rc := c.Row(i)
		if beta == 0 {
			for j := range rc {
				rc[j] = 0
			}
		}
		cols, vals := a.Row(i)
		if vals == nil {
			for _, col := range cols {
				rx := x.Row(int(col))
				for j := range rc {
					rc[j] += rx[j]
				}
			}
		} else {
			for k, col := range cols {
				av := vals[k]
				rx := x.Row(int(col))
				for j := range rc {
					rc[j] += av * rx[j]
				}
			}
		}
	}
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
	checkSpMMShapes(a, x, c)
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
		spmmRows(a, x, beta, c, 0, a.Rows)
		return
	}
	chunks := lanes * 4
	if chunks > a.Rows {
		chunks = a.Rows
	}
	bounds := nnzChunkBounds(a, chunks)
	pool.ForChunks(chunks, lanes, func(ch int) {
		if bounds[ch] < bounds[ch+1] {
			spmmRows(a, x, beta, c, bounds[ch], bounds[ch+1])
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

func checkSpMMShapes(a *CSR, x, c *tensor.Dense) {
	if a.Cols != x.Rows || c.Rows != a.Rows || c.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: SpMM shape mismatch (%dx%d)*(%dx%d) -> %dx%d",
			a.Rows, a.Cols, x.Rows, x.Cols, c.Rows, c.Cols))
	}
}

// spmmRows computes output rows [lo,hi), cache-blocked two ways: the
// feature dimension is processed in spmmColTile panels so the C-row
// segment being accumulated stays resident while X rows stream, and
// nonzeros are consumed two at a time so each C-segment load/store pair
// feeds two gathered X rows instead of one. Per output element the
// accumulation order is unchanged — ascending nonzero index with
// left-associated adds, exactly SpMMFlat's order — so results are
// bit-identical to the flat kernel for all finite inputs.
func spmmRows(a *CSR, x *tensor.Dense, beta float32, c *tensor.Dense, lo, hi int) {
	width := c.Cols
	for i := lo; i < hi; i++ {
		rc := c.Row(i)
		cols, vals := a.Row(i)
		for j0 := 0; j0 < width; j0 += spmmColTile {
			j1 := j0 + spmmColTile
			if j1 > width {
				j1 = width
			}
			seg := rc[j0:j1]
			if beta == 0 {
				for j := range seg {
					seg[j] = 0
				}
			}
			if vals == nil {
				spmmSeg1(seg, x, cols, j0, j1)
			} else {
				spmmSeg(seg, x, cols, vals, j0, j1)
			}
		}
	}
}

// spmmSeg accumulates seg += sum_k vals[k] * x[cols[k]][j0:j1], two
// nonzeros per pass through the dispatched kernel.Axpy2 — left-associated,
// the same per-element order as two separate axpys, SIMD when the CPU
// qualifies.
func spmmSeg(seg []float32, x *tensor.Dense, cols []int32, vals []float32, j0, j1 int) {
	k := 0
	for ; k+2 <= len(cols); k += 2 {
		x0 := x.Row(int(cols[k]))[j0:j1]
		x1 := x.Row(int(cols[k+1]))[j0:j1]
		kernel.Axpy2(vals[k], vals[k+1], x0, x1, seg)
	}
	if k < len(cols) {
		kernel.Axpy(vals[k], x.Row(int(cols[k]))[j0:j1], seg)
	}
}

// spmmSeg1 is spmmSeg for structure-only tiles (entries of 1), skipping
// the multiplies.
func spmmSeg1(seg []float32, x *tensor.Dense, cols []int32, j0, j1 int) {
	k := 0
	for ; k+2 <= len(cols); k += 2 {
		x0 := x.Row(int(cols[k]))[j0:j1]
		x1 := x.Row(int(cols[k+1]))[j0:j1]
		kernel.Add2(x0, x1, seg)
	}
	if k < len(cols) {
		kernel.Add(x.Row(int(cols[k]))[j0:j1], seg)
	}
}

// SpMMFlops returns the floating point operations of one SpMM with the given
// nonzero count and dense width (one multiply + one add per nnz per column).
func SpMMFlops(nnz int64, denseCols int) int64 { return 2 * nnz * int64(denseCols) }
