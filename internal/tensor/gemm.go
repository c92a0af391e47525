package tensor

import (
	"fmt"
	"runtime"

	"mggcn/internal/kernel"
	"mggcn/internal/pool"
)

// The dense products are one traversal around one microkernel: kernel.Tile
// owns an MR x NR tile of C across a k extent and reads A through two strides,
// so A*B (row stride a.Stride, k stride 1) and Aᵀ*B (1, a.Stride) need no
// packed transpose, and A*Bᵀ is A*B on the small operand's transpose. Every C
// element sums its products in ascending k from beta*C — the flat oracle's
// order — whatever the tile, the blocking below or the lane count, so every
// entry point here is bit-identical to GemmFlat.
const (
	// rowBlock is the run of C rows swept across every column strip before
	// the next: its rows of A (rowBlock x k) stay in L2 while each k x NR
	// strip of B is re-read from L1. At MR x NR = 8 x 32 and the layers'
	// k = 128 that is 128 KB of A and a 16 KB strip.
	rowBlock = 32 * kernel.MR
	// kPanel is the k extent Aᵀ*B consumes per pass over C, k outermost: A
	// and B are both tall there, and a panel of each (kPanel x m, kPanel x n)
	// is what fits L2 while every tile of C accumulates across it. Without
	// it each tile would stream both operands from memory.
	kPanel = 256
)

// Gemm computes C = alpha*A*B + beta*C with A (m x k), B (k x n), C (m x n).
// It is the sequential kernel; use ParallelGemm to split rows across the
// shared worker pool. Phantom operands make the call a no-op (shape-checked
// only).
func Gemm(alpha float32, a, b *Dense, beta float32, c *Dense) {
	ParallelGemm(alpha, a, b, beta, c, 1)
}

// GemmTA computes C = alpha*Aᵀ*B + beta*C with A (k x m), B (k x n),
// C (m x n). Used for the weight gradient W_G = Hᵀ HW_G style products.
// It is ParallelGemmTA at one lane.
func GemmTA(alpha float32, a, b *Dense, beta float32, c *Dense) {
	ParallelGemmTA(alpha, a, b, beta, c, 1)
}

// GemmTB computes C = alpha*A*Bᵀ + beta*C with A (m x k), B (n x k),
// C (m x n). Used for H_G = HW_G * Wᵀ. It is ParallelGemmTB at one lane.
func GemmTB(alpha float32, a, b *Dense, beta float32, c *Dense) {
	ParallelGemmTB(alpha, a, b, beta, c, 1)
}

func checkGemmShapes(m, k, bk, n int, c *Dense, op string) {
	if k != bk || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("tensor: %s shape mismatch: (%dx%d)*(%dx%d) -> %dx%d", op, m, k, bk, n, c.Rows, c.Cols))
	}
}

// applyBeta is the beta prologue: overwrite C at 0, keep it at 1, scale it
// otherwise.
func applyBeta(c *Dense, beta float32) {
	if beta == 0 {
		c.Zero()
	} else if beta != 1 {
		ScaleInPlace(c, beta)
	}
}

// ParallelGemm is Gemm with MR-aligned row ranges drawn from the shared
// worker pool (workers <= 0 caps lanes at GOMAXPROCS). Rows are independent,
// so any chunking is bit-identical to the sequential kernel.
func ParallelGemm(alpha float32, a, b *Dense, beta float32, c *Dense, workers int) {
	checkGemmShapes(a.Rows, a.Cols, b.Rows, b.Cols, c, "Gemm")
	gemm(alpha, a, a.Stride, 1, b, beta, c, workers, false)
}

// ParallelGemmTB is GemmTB with row-parallel execution on the shared pool.
// It packs Bᵀ once (the weights: small) and is then ParallelGemm; the pack is
// the only allocation any product makes at alpha = 1.
func ParallelGemmTB(alpha float32, a, b *Dense, beta float32, c *Dense, workers int) {
	checkGemmShapes(a.Rows, a.Cols, b.Cols, b.Rows, c, "GemmTB")
	gemm(alpha, a, a.Stride, 1, b.Transpose(), beta, c, workers, false)
}

// ParallelGemmTA is GemmTA on the shared pool: the same tile reading A down
// its columns, k-panel outermost, C's rows split over as few MR-aligned
// ranges as there are lanes because every range streams all of A and B. The
// weight-gradient product Hᵀ·HW_G has k = a device's vertex rows and
// m = n = layer widths.
func ParallelGemmTA(alpha float32, a, b *Dense, beta float32, c *Dense, workers int) {
	checkGemmShapes(a.Cols, a.Rows, b.Rows, b.Cols, c, "GemmTA")
	gemm(alpha, a, 1, a.Stride, b, beta, c, workers, true)
}

// gemm computes C = alpha*op(A)*B + beta*C, op(A)[i][p] = a.Data[i*ars+p*aks],
// B (k x n). kOuter selects the Aᵀ*B traversal: kPanel-high passes and one row
// range per lane; otherwise the whole k extent in one pass over
// pool.ParallelFor's row chunks.
func gemm(alpha float32, a *Dense, ars, aks int, b *Dense, beta float32, c *Dense, workers int, kOuter bool) {
	if a.IsPhantom() || b.IsPhantom() || c.IsPhantom() || c.Rows == 0 || c.Cols == 0 {
		return
	}
	m, k, ad := c.Rows, b.Rows, a.Data
	if beta != 0 || k == 0 {
		applyBeta(c, beta) // at beta = 0 the first pass of tiles overwrites C instead
	}
	if k == 0 {
		return
	}
	if alpha != 1 {
		// Off the fast path (no caller trains with it): the oracle rounds
		// alpha*a before each product, so multiply a tight copy of op(A).
		ad = make([]float32, m*k)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				ad[i*k+p] = alpha * a.Data[i*ars+p*aks]
			}
		}
		ars, aks = k, 1
	}
	blocks, kp := (m+kernel.MR-1)/kernel.MR, k
	if kOuter {
		kp = kPanel
	}
	rows := func(lo, hi int) {
		gemmRows(ad, ars, aks, b, c, lo*kernel.MR, min(hi*kernel.MR, m), kp, beta != 0)
	}
	if !kOuter {
		pool.ParallelFor(blocks, workers, rows)
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ranges := min(workers, blocks)
	pool.ForChunks(ranges, ranges, func(r int) { rows(r*blocks/ranges, (r+1)*blocks/ranges) })
}

// gemmRows accumulates rows [lo,hi) of C (from C if acc, else from 0) in
// passes of kp over k; within a pass, each row block crosses every NR-column
// strip of B before the next block starts.
func gemmRows(a []float32, ars, aks int, b, c *Dense, lo, hi, kp int, acc bool) {
	k, n := b.Rows, c.Cols
	for p0 := 0; p0 < k; p0, acc = p0+kp, true {
		kk := min(kp, k-p0)
		for i0 := lo; i0 < hi; i0 += rowBlock {
			i1 := min(i0+rowBlock, hi)
			for j := 0; j < n; j += kernel.NR {
				bs := b.Data[p0*b.Stride+j:]
				for i := i0; i < i1; i += kernel.MR {
					kernel.Tile(min(kernel.MR, i1-i), min(kernel.NR, n-j), kk, a[i*ars+p0*aks:], ars, aks,
						bs, b.Stride, c.Data[i*c.Stride+j:], c.Stride, acc)
				}
			}
		}
	}
}

// GemmFlops returns the floating point operation count of an m x k x n GeMM.
func GemmFlops(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }
