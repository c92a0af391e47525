//go:build !race && arm64

package kernel

// Assembly bodies in asm_arm64.s. Every Vec4 entry point processes a
// multiple of 4 elements (one 128-bit NEON vector of float32), tileVec4 and
// spmmRowVec4 a multiple of 4 columns; odd tails are handled here with the scalar
// expressions, which the arm64 compiler fuses exactly like the vector bodies
// do (see kernel.go for the bit-identity contract).
func addVec4(dst, x *float32, n int)
func reluVec4(dst, src *float32, n int)
func reluMaskVec4(dst, grad, act *float32, n int)
func tileVec4(k int, a *float32, ars, aks int, b *float32, bs int, c *float32, cs int, rows, vecs int, acc bool)
func spmmRowVec4(c *float32, vecs int, x *float32, xs int, cols, last *int32, vals *float32, form ValForm, n int, acc bool)

// NEON (ASIMD) is mandatory on arm64, so every entry with a NEON body is
// offered it, and install still holds it to the scalar kernel bit for bit: a
// fusion mismatch between this build's compiler and the assembly falls back
// to scalar instead of corrupting training. The stream's loops and the
// softmax rows have no NEON bodies (the rows call math.Exp, whose arm64
// assembly they would have to match).
var (
	tileBodies     = offer(true, "neon", tileNEON)
	spmmRowBodies  = offer(true, "neon", spmmRowNEON)
	addBodies      = offer(true, "neon", addNEON)
	reluBodies     = offer(true, "neon", reluNEON)
	reluMaskBodies = offer(true, "neon", reluMaskNEON)
)

func init() {
	impl = install("Tile", &Tile, probeTile, tileBodies)
	install("SpMMRow", &SpMMRow, probeSpMMRow, spmmRowBodies)
	install("Add", &Add, probeAdd, addBodies)
	install("ReLU", &ReLU, probeReLU, reluBodies)
	install("ReLUMask", &ReLUMask, probeReLUMask, reluMaskBodies)
}

func addNEON(x, dst []float32) {
	x, nv := x[:len(dst)], len(dst)&^3
	if nv > 0 {
		addVec4(&dst[0], &x[0], nv)
	}
	addScalar(x[nv:], dst[nv:])
}

func reluNEON(dst, src []float32) {
	src, nv := src[:len(dst)], len(dst)&^3
	if nv > 0 {
		reluVec4(&dst[0], &src[0], nv)
	}
	reluScalar(dst[nv:], src[nv:])
}

func reluMaskNEON(dst, grad, act []float32) {
	grad, act, nv := grad[:len(dst)], act[:len(dst)], len(dst)&^3
	if nv > 0 {
		reluMaskVec4(&dst[0], &grad[0], &act[0], nv)
	}
	reluMaskScalar(dst[nv:], grad[nv:], act[nv:])
}

// tileNEON runs the MR x NR tile as 4 x 16 tiles of tileQ.
func tileNEON(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool) {
	tileSplit(4, 16, tileQ, rows, cols, k, a, ars, aks, b, bs, c, cs, acc)
}

// tileQ is one 4 x 16 tile: whole 4-float column vectors in the assembly,
// the rest in the scalar body.
func tileQ(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool) {
	cv := cols &^ 3
	if cv == 0 {
		tileScalar(rows, cols, k, a, ars, aks, b, bs, c, cs, acc) // no whole vector
		return
	}
	tileVec4(k, &a[0], ars, aks, &b[0], bs, &c[0], cs, rows, cv/4, acc)
	if cv < cols {
		tileScalar(rows, cols-cv, k, a, ars, aks, b[cv:], bs, c[cv:], cs, acc)
	}
}

func spmmRowNEON(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool) {
	cv := len(c) &^ 3
	if n == 0 || cv == 0 {
		spmmRowScalar(c, x, xs, xrows, cols, vals, form, n, acc) // nothing to add (and no cols[0] to point at), or no whole vector
		return
	}
	checkSpMMRow(c, x, xs, xrows, cols, vals, form, n)
	vv, vf := vals, form
	if vv == nil {
		vv, vf = one[:], RowConst
	}
	spmmRowVec4(&c[0], cv/4, &x[0], xs, &cols[0], &cols[len(cols)-1], &vv[0], vf, n, acc)
	if cv < len(c) {
		spmmRowScalar(c[cv:], x[cv:], xs, xrows, cols, vals, form, n, acc)
	}
}
