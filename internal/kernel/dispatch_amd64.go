//go:build !race && amd64

package kernel

// Assembly bodies in asm_amd64.s. The Vec8 kernels process a multiple of 8
// elements (one YMM of float32, two of uint64); tileVec handles any extent
// inside 4 x 16 and tileVec512 any inside MR x NR. The float ones use
// separate VMULPS/VADDPS, on YMM and ZMM alike — never fused multiply-add —
// because the amd64 Go compiler does not fuse float32 mul+add either, and
// bit-identity with the scalar path is the dispatch contract.
func addVec8(dst, x *float32, n int)
func reluVec8(dst, src *float32, n int)
func reluMaskVec8(dst, grad, act *float32, n int)
func tileVec(k int, a *float32, ars, aks int, b *float32, bs int, c *float32, cs int, rows, cols int, acc bool)
func tileVec512(k int, a *float32, ars, aks int, b *float32, bs int, c *float32, cs int, rows, cols int, acc bool)
func spmmRowVec(c *float32, w int, x *float32, xs, xrows int, cols, last *int32, vals *float32, form ValForm, n int, acc bool) (bad bool)
func addU64Vec8(dst, x *uint64, n int)
func firstOutside63Vec8(v *uint64, n int, lom1, him1 uint64) int

// verifyAndInstall re-checks bit-identity against the scalar kernels on
// rounding-sensitive probes before swapping the table; a candidate that
// deviates (a miscompiled or misassembled kernel) is passed over for the
// next, and the scalar path stays in place if none is left, instead of
// corrupting training.
func init() { verifyAndInstall(candidates()...) }

// candidates is every implementation this CPU can execute, best first: the
// AVX2 set, led by the same set with the 512-bit tile where the CPU and OS
// support AVX-512.
func candidates() []impls {
	if !hasAVX2 {
		return nil
	}
	avx2 := impls{
		name: "avx2",
		add:  addAVX2,
		tile: tileAVX2, spmmRow: spmmRowAVX2,
		relu: reluAVX2, reluMask: reluMaskAVX2,
		addU64: addU64AVX2, firstOutside63: firstOutside63AVX2,
	}
	if !hasAVX512 {
		return []impls{avx2}
	}
	avx512 := avx2
	avx512.name, avx512.tile = "avx512", tileAVX512
	return []impls{avx512, avx2}
}

func addAVX2(x, dst []float32) {
	n := len(dst)
	x = x[:n]
	nv := n &^ 7
	if nv > 0 {
		addVec8(&dst[0], &x[0], nv)
	}
	for j := nv; j < n; j++ {
		dst[j] += x[j]
	}
}

func reluAVX2(dst, src []float32) {
	n := len(dst)
	src = src[:n]
	nv := n &^ 7
	if nv > 0 {
		reluVec8(&dst[0], &src[0], nv)
	}
	reluScalar(dst[nv:], src[nv:])
}

func reluMaskAVX2(dst, grad, act []float32) {
	n := len(dst)
	grad, act = grad[:n], act[:n]
	nv := n &^ 7
	if nv > 0 {
		reluMaskVec8(&dst[0], &grad[0], &act[0], nv)
	}
	reluMaskScalar(dst[nv:], grad[nv:], act[nv:])
}

// tileAVX2 runs the MR x NR tile as 4 x 16 tiles of the YMM body.
func tileAVX2(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool) {
	tileSplit(4, 16, tileYMM, rows, cols, k, a, ars, aks, b, bs, c, cs, acc)
}

func tileYMM(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool) {
	tileVec(k, &a[0], ars, aks, &b[0], bs, &c[0], cs, rows, cols, acc)
}

func tileAVX512(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool) {
	if k == 0 {
		tileScalar(rows, cols, k, a, ars, aks, b, bs, c, cs, acc) // nothing to multiply, and no a[0] to point at
		return
	}
	checkTile(rows, cols, k, a, ars, aks, b, bs, c, cs)
	tileVec512(k, &a[0], ars, aks, &b[0], bs, &c[0], cs, rows, cols, acc)
}

// spmmRowAVX2 leaves the column proof to the body, which checks each column
// as it loads it and reports the first outside X before it stores anything.
func spmmRowAVX2(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool) {
	if n == 0 || xrows == 0 {
		spmmRowScalar(c, x, xs, xrows, cols, vals, form, n, acc) // nothing to add, or no row of X for a column to name
		return
	}
	checkSpMMExtents(c, x, xs, xrows, cols, vals, form, n)
	if vals == nil {
		vals, form = one[:], RowConst
	}
	if spmmRowVec(&c[0], len(c), &x[0], xs, xrows, &cols[0], &cols[len(cols)-1], &vals[0], form, n, acc) {
		panic(errSpMMColumn)
	}
}

func addU64AVX2(dst, x []uint64) {
	n := len(dst)
	x = x[:n]
	nv := n &^ 7
	if nv > 0 {
		addU64Vec8(&dst[0], &x[0], nv)
	}
	addU64Scalar(dst[nv:], x[nv:])
}

func firstOutside63AVX2(v []uint64, lo, hi uint64) int {
	nv := len(v) &^ 7
	if nv > 0 {
		// A masked value is below 2⁶³, so bounds clamped there give the same
		// answer, and with hi raised to lo, lo−1 ≤ hi−1 are exact int64s.
		lo, hi = min(lo, 1<<63), min(max(hi, lo), 1<<63)
		if i := firstOutside63Vec8(&v[0], nv, lo-1, hi-1); i < nv {
			return i
		}
	}
	return nv + firstOutside63Scalar(v[nv:], lo, hi)
}
