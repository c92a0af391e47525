package tensor

import (
	"fmt"
	"sync"

	"mggcn/internal/kernel"
	"mggcn/internal/pool"
)

// blockK is the k-dimension panel of the blocked GeMM kernels: the panel's
// B rows stay hot in cache while C rows accumulate across it. 64 rows x
// (n x 4 bytes) keeps a hidden-512 panel inside L2 and a hidden-128 panel
// inside L1. It must stay even: the micro-kernel consumes k steps in pairs
// from each panel start, and an odd panel height would shift pair boundaries.
const blockK = 64

// gemmFlatMaxBytes is the whole-B-footprint threshold below which panel
// blocking is skipped: when all of B (k x n x 4 bytes) fits in cache, the
// panel loop only re-reads each C row k/blockK times for nothing (blocked
// measured 0.87x flat at 2048x128x128). Under the threshold gemmRows runs
// one panel of the full k extent, which is exactly the flat traversal order
// with the 2x2 micro-kernel kept. Panel boundaries never change the
// per-element accumulation order, so both regimes are bit-identical to
// GemmFlat.
const gemmFlatMaxBytes = 64 << 10

// effBlockK resolves the panel height for a k x n multiply: the full k
// extent (one panel — flat traversal) when B fits the flat threshold,
// otherwise blockK.
func effBlockK(k, n int) int {
	if k*n*4 <= gemmFlatMaxBytes {
		return k
	}
	return blockK
}

// Gemm computes C = alpha*A*B + beta*C with A (m x k), B (k x n), C (m x n).
// It is the sequential kernel; use ParallelGemm to split rows across the
// shared worker pool. Phantom operands make the call a no-op (shape-checked
// only).
func Gemm(alpha float32, a, b *Dense, beta float32, c *Dense) {
	checkGemmShapes(a.Rows, a.Cols, b.Rows, b.Cols, c, "Gemm")
	if a.IsPhantom() || b.IsPhantom() || c.IsPhantom() {
		return
	}
	gemmRows(alpha, a, b, beta, c, 0, c.Rows)
}

// GemmFlat is the pre-blocking reference kernel (flat row loop, one k step
// and one C row at a time), retained as the oracle for the blocked kernel's
// bit-identity tables and as the microbenchmark baseline. Not for
// production call sites — Gemm is strictly faster.
func GemmFlat(alpha float32, a, b *Dense, beta float32, c *Dense) {
	checkGemmShapes(a.Rows, a.Cols, b.Rows, b.Cols, c, "GemmFlat")
	if a.IsPhantom() || b.IsPhantom() || c.IsPhantom() {
		return
	}
	k := a.Cols
	for i := 0; i < c.Rows; i++ {
		rc := c.Row(i)
		applyBeta(rc, beta)
		ra := a.Row(i)
		for p := 0; p < k; p++ {
			s := alpha * ra[p]
			rb := b.Row(p)
			for j, bv := range rb {
				rc[j] += s * bv
			}
		}
	}
}

// GemmTA computes C = alpha*Aᵀ*B + beta*C with A (k x m), B (k x n),
// C (m x n). Used for the weight gradient W_G = Hᵀ HW_G style products.
// It is the sequential kernel; ParallelGemmTA packs the transpose and runs
// the blocked row-parallel GeMM instead.
func GemmTA(alpha float32, a, b *Dense, beta float32, c *Dense) {
	checkGemmShapes(a.Cols, a.Rows, b.Rows, b.Cols, c, "GemmTA")
	if a.IsPhantom() || b.IsPhantom() || c.IsPhantom() {
		return
	}
	if beta == 0 {
		c.Zero()
	} else if beta != 1 {
		ScaleInPlace(c, beta)
	}
	// Accumulate outer products row-by-row of A/B: C += alpha * A[i,:]ᵀ B[i,:].
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for p, av := range ra {
			if av == 0 {
				continue
			}
			kernel.Axpy(alpha*av, rb, c.Row(p))
		}
	}
}

// GemmTB computes C = alpha*A*Bᵀ + beta*C with A (m x k), B (n x k),
// C (m x n). Used for H_G = HW_G * Wᵀ.
func GemmTB(alpha float32, a, b *Dense, beta float32, c *Dense) {
	checkGemmShapes(a.Rows, a.Cols, b.Cols, b.Rows, c, "GemmTB")
	if a.IsPhantom() || b.IsPhantom() || c.IsPhantom() {
		return
	}
	gemmTBRows(alpha, a, b, beta, c, 0, c.Rows)
}

func checkGemmShapes(m, k, bk, n int, c *Dense, op string) {
	if k != bk || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("tensor: %s shape mismatch: (%dx%d)*(%dx%d) -> %dx%d", op, m, k, bk, n, c.Rows, c.Cols))
	}
}

// applyBeta scales a C row for the beta prologue: overwrite at 0, keep at
// 1, scale otherwise.
func applyBeta(rc []float32, beta float32) {
	if beta == 0 {
		for j := range rc {
			rc[j] = 0
		}
	} else if beta != 1 {
		for j := range rc {
			rc[j] *= beta
		}
	}
}

// gemmRows computes rows [lo,hi) of C = alpha*A*B + beta*C, cache-blocked:
// k is processed in blockK panels (the panel's B rows stay resident while
// C rows stream across it) and the micro-kernel is 2 C-rows x 2 k-steps,
// so each loaded B row feeds four accumulations instead of one. Per C
// element the accumulation order is unchanged — ascending k with
// left-associated adds, exactly the flat kernel's order — so results are
// bit-identical to GemmFlat for all finite inputs.
func gemmRows(alpha float32, a, b *Dense, beta float32, c *Dense, lo, hi int) {
	k := a.Cols
	bk := effBlockK(k, c.Cols)
	i := lo
	for ; i+2 <= hi; i += 2 {
		rc0, rc1 := c.Row(i), c.Row(i+1)
		applyBeta(rc0, beta)
		applyBeta(rc1, beta)
		ra0, ra1 := a.Row(i), a.Row(i+1)
		for k0 := 0; k0 < k; k0 += bk {
			k1 := k0 + bk
			if k1 > k {
				k1 = k
			}
			gemmPanel2(alpha, ra0, ra1, b, rc0, rc1, k0, k1)
		}
	}
	if i < hi {
		rc := c.Row(i)
		applyBeta(rc, beta)
		ra := a.Row(i)
		for k0 := 0; k0 < k; k0 += bk {
			k1 := k0 + bk
			if k1 > k {
				k1 = k
			}
			gemmPanel1(alpha, ra, b, rc, k0, k1)
		}
	}
}

// gemmPanel2 accumulates the k-panel [k0,k1) into two C rows, two k steps
// per pass through the dispatched kernel.Panel2x2 — left-associated per
// element, the same order as four separate axpys, SIMD when the build
// carries the `simd` tag and the CPU qualifies.
func gemmPanel2(alpha float32, ra0, ra1 []float32, b *Dense, rc0, rc1 []float32, k0, k1 int) {
	n := len(rc0)
	p := k0
	for ; p+2 <= k1; p += 2 {
		s00, s01 := alpha*ra0[p], alpha*ra0[p+1]
		s10, s11 := alpha*ra1[p], alpha*ra1[p+1]
		if s00 == 0 && s01 == 0 && s10 == 0 && s11 == 0 {
			continue // ReLU-sparse inputs: a whole zero 2x2 tile of A
		}
		rb0 := b.Row(p)[:n]
		rb1 := b.Row(p + 1)[:n]
		kernel.Panel2x2(s00, s01, s10, s11, rb0, rb1, rc0[:n], rc1[:n])
	}
	for ; p < k1; p++ {
		s0, s1 := alpha*ra0[p], alpha*ra1[p]
		if s0 == 0 && s1 == 0 {
			continue
		}
		rb := b.Row(p)[:n]
		kernel.Axpy(s0, rb, rc0[:n])
		kernel.Axpy(s1, rb, rc1[:n])
	}
}

// gemmPanel1 is gemmPanel2 for a single (tail) C row.
func gemmPanel1(alpha float32, ra []float32, b *Dense, rc []float32, k0, k1 int) {
	n := len(rc)
	p := k0
	for ; p+2 <= k1; p += 2 {
		s0, s1 := alpha*ra[p], alpha*ra[p+1]
		if s0 == 0 && s1 == 0 {
			continue
		}
		rb0 := b.Row(p)[:n]
		rb1 := b.Row(p + 1)[:n]
		kernel.Axpy2(s0, s1, rb0, rb1, rc[:n])
	}
	for ; p < k1; p++ {
		s := alpha * ra[p]
		if s == 0 {
			continue
		}
		kernel.Axpy(s, b.Row(p)[:n], rc[:n])
	}
}

// gemmTBRows computes rows [lo,hi) of C = alpha*A*Bᵀ + beta*C. Two A rows
// share each loaded B row, halving B traffic; every dot product keeps
// dot4's four-partial-sum pattern so results match the one-row path
// bit for bit.
func gemmTBRows(alpha float32, a, b *Dense, beta float32, c *Dense, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		ra0, ra1 := a.Row(i), a.Row(i+1)
		rc0, rc1 := c.Row(i), c.Row(i+1)
		for j := 0; j < b.Rows; j++ {
			rb := b.Row(j)
			d0, d1 := kernel.Dot4Pair(ra0, ra1, rb)
			if beta == 0 {
				rc0[j] = alpha * d0
				rc1[j] = alpha * d1
			} else {
				rc0[j] = beta*rc0[j] + alpha*d0
				rc1[j] = beta*rc1[j] + alpha*d1
			}
		}
	}
	for ; i < hi; i++ {
		ra := a.Row(i)
		rc := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			rb := b.Row(j)
			dot := kernel.Dot4(ra, rb)
			if beta == 0 {
				rc[j] = alpha * dot
			} else {
				rc[j] = beta*rc[j] + alpha*dot
			}
		}
	}
}

// ParallelGemm is Gemm with row ranges drawn from the shared worker pool
// (workers <= 0 caps lanes at GOMAXPROCS). Rows are independent, so any
// chunking is bit-identical to the sequential kernel.
func ParallelGemm(alpha float32, a, b *Dense, beta float32, c *Dense, workers int) {
	checkGemmShapes(a.Rows, a.Cols, b.Rows, b.Cols, c, "ParallelGemm")
	if a.IsPhantom() || b.IsPhantom() || c.IsPhantom() {
		return
	}
	pool.ParallelFor(c.Rows, workers, func(lo, hi int) {
		gemmRows(alpha, a, b, beta, c, lo, hi)
	})
}

// ParallelGemmTB is GemmTB with row-parallel execution on the shared pool.
func ParallelGemmTB(alpha float32, a, b *Dense, beta float32, c *Dense, workers int) {
	checkGemmShapes(a.Rows, a.Cols, b.Cols, b.Rows, c, "ParallelGemmTB")
	if a.IsPhantom() || b.IsPhantom() || c.IsPhantom() {
		return
	}
	pool.ParallelFor(c.Rows, workers, func(lo, hi int) {
		gemmTBRows(alpha, a, b, beta, c, lo, hi)
	})
}

// packScratch recycles the Aᵀ panels ParallelGemmTA packs: weight-gradient
// products recur every layer of every epoch with identical shapes, so the
// pack buffer is reused instead of churning the GC.
var packScratch = sync.Pool{New: func() any { return []float32(nil) }}

// ParallelGemmTA computes C = alpha*Aᵀ*B + beta*C with A (k x m), B (k x n)
// like GemmTA, but parallel: it packs the Aᵀ panel once (a blocked
// transpose of A into scratch, split over the pool) and then runs the
// blocked row-parallel GeMM on the packed panel. The weight-gradient
// product Hᵀ·HW_G (k = a device's vertex rows, m = n = layer widths) was
// the last serial kernel in the backward pass — outer-product accumulation
// races on C, so it could not be row-split without this transposition.
//
// Accumulation per C element is ascending k, the same order as GemmTA, so
// results match the sequential kernel bit for bit on finite inputs.
func ParallelGemmTA(alpha float32, a, b *Dense, beta float32, c *Dense, workers int) {
	checkGemmShapes(a.Cols, a.Rows, b.Rows, b.Cols, c, "ParallelGemmTA")
	if a.IsPhantom() || b.IsPhantom() || c.IsPhantom() {
		return
	}
	k, m := a.Rows, a.Cols
	buf := packScratch.Get().([]float32)
	if cap(buf) < m*k {
		buf = make([]float32, m*k)
	}
	at := &Dense{Rows: m, Cols: k, Stride: k, Data: buf[:m*k]}
	pool.ParallelFor(m, workers, func(lo, hi int) {
		packTransposeRows(a, at, lo, hi)
	})
	pool.ParallelFor(c.Rows, workers, func(lo, hi int) {
		gemmRows(alpha, at, b, beta, c, lo, hi)
	})
	packScratch.Put(buf[:0])
}

// packTransposeRows fills rows [jLo,jHi) of at = aᵀ, reading a in panels
// of source rows so each panel's cache lines are reused across the
// destination rows the lane owns.
func packTransposeRows(a, at *Dense, jLo, jHi int) {
	const panel = 64
	for i0 := 0; i0 < a.Rows; i0 += panel {
		i1 := i0 + panel
		if i1 > a.Rows {
			i1 = a.Rows
		}
		for j := jLo; j < jHi; j++ {
			col := at.Row(j)
			for i := i0; i < i1; i++ {
				col[i] = a.Data[i*a.Stride+j]
			}
		}
	}
}

// GemmFlops returns the floating point operation count of an m x k x n GeMM.
func GemmFlops(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }
