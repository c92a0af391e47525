//go:build !race && amd64

package kernel

// Assembly bodies in asm_amd64.s. The Vec8 kernels process a multiple of 8
// elements (one YMM of float32); tileVec handles any extent
// inside 4 x 16, tileVec512 any inside MR x NR, and spmmRowVec (eight YMM
// accumulators) and spmmRowVec512 (four ZMM) any strip of 1..SpMMStrip
// floats. The float ones use separate VMULPS/VADDPS, on YMM and ZMM alike —
// never fused multiply-add — because the amd64 Go compiler does not fuse
// float32 mul+add either, and bit-identity with the scalar path is the
// dispatch contract.
func addVec8(dst, x *float32, n int)
func reluVec8(dst, src *float32, n int)
func reluMaskVec8(dst, grad, act *float32, n int)
func tileVec(k int, a *float32, ars, aks int, b *float32, bs int, c *float32, cs int, rows, cols int, acc bool)
func tileVec512(k int, a *float32, ars, aks int, b *float32, bs int, c *float32, cs int, rows, cols int, acc bool)
func spmmRowVec(c *float32, w int, x *float32, xs, xrows int, cols, last *int32, vals *float32, form ValForm, n int, acc bool) (bad bool)
func spmmRowVec512(c *float32, w int, x *float32, xs, xrows int, cols, last *int32, vals *float32, form ValForm, n int, acc bool) (bad bool)

// The softmax row's bodies, math.Exp's fused path (exp_amd64.s's avxfma) on
// eight lanes with an opmask tail or on four with n a multiple of 4. ok is
// false, and dst and sum garbage, when a lane's exponent leaves the normal
// range: the row is then the scalar body's.
func expRowVec512(dst *float64, src *float32, n int, mx float32) (sum float64, ok bool)
func expRowVec4(dst *float64, src *float32, n int, mx float32) (sum float64, ok bool)
func normRowVec512(dst *float32, e *float64, n int, sum, scale float64)
func normRowVec4(dst *float32, e *float64, n int, sum, scale float64)

// Each entry's bodies, best first, that this CPU and OS can execute: the
// 512-bit ones where they support AVX-512, the AVX2 ones where they support
// AVX2, unless GODEBUG switches either off (cpu_amd64.go). ExpRow's bodies
// are math.Exp's fused path, so a CPU without FMA, whose math.Exp takes the
// other, is not offered them. The init installs each entry's first body that
// passes the entry's probe; the tests probe and fuzz them all.
var (
	tileBodies     = append(offer(hasAVX512, "avx512", tileAVX512), offer(hasAVX2, "avx2", tileAVX2)...)
	spmmRowBodies  = append(offer(hasAVX512, "avx512", spmmRowAVX512), offer(hasAVX2, "avx2", spmmRowAVX2)...)
	addBodies      = offer(hasAVX2, "avx2", addAVX2)
	reluBodies     = offer(hasAVX2, "avx2", reluAVX2)
	reluMaskBodies = offer(hasAVX2, "avx2", reluMaskAVX2)
	expRowBodies   = append(offer(hasAVX512 && hasFMA, "avx512", expRowAVX512), offer(hasFMA, "avx2", expRowAVX2)...)
	normRowBodies  = append(offer(hasAVX512, "avx512", normRowAVX512), offer(hasAVX2, "avx2", normRowAVX2)...)
)

func init() {
	impl = install("Tile", &Tile, probeTile, tileBodies)
	install("SpMMRow", &SpMMRow, probeSpMMRow, spmmRowBodies)
	install("Add", &Add, probeAdd, addBodies)
	install("ReLU", &ReLU, probeReLU, reluBodies)
	install("ReLUMask", &ReLUMask, probeReLUMask, reluMaskBodies)
	install("ExpRow", &ExpRow, probeExpRow, expRowBodies)
	install("NormRow", &NormRow, probeNormRow, normRowBodies)
}

func addAVX2(x, dst []float32) {
	x, nv := x[:len(dst)], len(dst)&^7
	if nv > 0 {
		addVec8(&dst[0], &x[0], nv)
	}
	addScalar(x[nv:], dst[nv:])
}

func reluAVX2(dst, src []float32) {
	src, nv := src[:len(dst)], len(dst)&^7
	if nv > 0 {
		reluVec8(&dst[0], &src[0], nv)
	}
	reluScalar(dst[nv:], src[nv:])
}

func reluMaskAVX2(dst, grad, act []float32) {
	grad, act, nv := grad[:len(dst)], act[:len(dst)], len(dst)&^7
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

// spmmRowAVX512 and spmmRowAVX2 leave the column proof to the body, which
// checks each column as it loads it and reports the first outside X before
// it stores anything. Each calls its body directly: through a shared helper
// and a function value, a row's call cost about 5 ns more on a 2-vCPU
// AVX-512 Xeon.
func spmmRowAVX512(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool) {
	if n == 0 || xrows == 0 {
		spmmRowScalar(c, x, xs, xrows, cols, vals, form, n, acc) // nothing to add, or no row of X for a column to name
		return
	}
	checkSpMMExtents(c, x, xs, xrows, cols, vals, form, n)
	if vals == nil {
		vals, form = one[:], RowConst
	}
	if spmmRowVec512(&c[0], len(c), &x[0], xs, xrows, &cols[0], &cols[len(cols)-1], &vals[0], form, n, acc) {
		panic(errSpMMColumn)
	}
}

func spmmRowAVX2(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool) {
	if n == 0 || xrows == 0 {
		spmmRowScalar(c, x, xs, xrows, cols, vals, form, n, acc)
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

func expRowAVX512(dst []float64, src []float32, mx float32) float64 {
	src = src[:len(dst)]
	if len(dst) > 0 {
		if sum, ok := expRowVec512(&dst[0], &src[0], len(dst), mx); ok {
			return sum
		}
	}
	return expRowScalar(dst, src, mx)
}

func expRowAVX2(dst []float64, src []float32, mx float32) float64 {
	src, nv, sum := src[:len(dst)], len(dst)&^3, 0.0
	if nv > 0 {
		var ok bool
		if sum, ok = expRowVec4(&dst[0], &src[0], nv, mx); !ok {
			return expRowScalar(dst, src, mx)
		}
	}
	return expRowFrom(sum, dst[nv:], src[nv:], mx)
}

func normRowAVX512(dst []float32, e []float64, sum, scale float64) {
	e = e[:len(dst)]
	if len(dst) > 0 {
		normRowVec512(&dst[0], &e[0], len(dst), sum, scale)
	}
}

func normRowAVX2(dst []float32, e []float64, sum, scale float64) {
	e, nv := e[:len(dst)], len(dst)&^3
	if nv > 0 {
		normRowVec4(&dst[0], &e[0], nv, sum, scale)
	}
	normRowScalar(dst[nv:], e[nv:], sum, scale)
}
