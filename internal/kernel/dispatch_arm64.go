//go:build simd && arm64

package kernel

// Assembly bodies in asm_arm64.s. Every entry point processes a multiple
// of 4 elements (one 128-bit NEON vector of float32); odd tails are
// handled here with the scalar expressions, which the arm64 compiler
// fuses exactly like the vector bodies do (see kernel.go for the
// bit-identity contract).
func addVec4(dst, x *float32, n int)
func add2Vec4(dst, x0, x1 *float32, n int)
func axpyVec4(a float32, x, dst *float32, n int)
func axpy2Vec4(a0, a1 float32, x0, x1, dst *float32, n int)
func panel2x2Vec4(s00, s01, s10, s11 float32, b0, b1, c0, c1 *float32, n int)
func dot4Vec(a, b *float32, n int) float32
func dot4PairVec(a0, a1, b *float32, n int) (d0, d1 float32)

func init() {
	// NEON (ASIMD) is architecturally mandatory on arm64, so there is no
	// feature probe — but verifyAndInstall still gates installation on
	// bit-identity with the scalar kernels, so a fusion-behavior mismatch
	// between this build's compiler and the assembly falls back to scalar
	// instead of corrupting training.
	verifyAndInstall(impls{
		name: "neon",
		add:  addNEON, add2: add2NEON,
		axpy: axpyNEON, axpy2: axpy2NEON,
		panel2x2: panel2x2NEON,
		dot4:     dot4NEON, dot4Pair: dot4PairNEON,
	})
}

func addNEON(x, dst []float32) {
	n := len(dst)
	x = x[:n]
	nv := n &^ 3
	if nv > 0 {
		addVec4(&dst[0], &x[0], nv)
	}
	for j := nv; j < n; j++ {
		dst[j] += x[j]
	}
}

func add2NEON(x0, x1, dst []float32) {
	n := len(dst)
	x0 = x0[:n]
	x1 = x1[:n]
	nv := n &^ 3
	if nv > 0 {
		add2Vec4(&dst[0], &x0[0], &x1[0], nv)
	}
	for j := nv; j < n; j++ {
		dst[j] = dst[j] + x0[j] + x1[j]
	}
}

func axpyNEON(a float32, x, dst []float32) {
	n := len(dst)
	x = x[:n]
	nv := n &^ 3
	if nv > 0 {
		axpyVec4(a, &x[0], &dst[0], nv)
	}
	for j := nv; j < n; j++ {
		dst[j] += a * x[j]
	}
}

func axpy2NEON(a0, a1 float32, x0, x1, dst []float32) {
	n := len(dst)
	x0 = x0[:n]
	x1 = x1[:n]
	nv := n &^ 3
	if nv > 0 {
		axpy2Vec4(a0, a1, &x0[0], &x1[0], &dst[0], nv)
	}
	for j := nv; j < n; j++ {
		dst[j] = dst[j] + a0*x0[j] + a1*x1[j]
	}
}

func panel2x2NEON(s00, s01, s10, s11 float32, b0, b1, c0, c1 []float32) {
	n := len(c0)
	b0 = b0[:n]
	b1 = b1[:n]
	c1 = c1[:n]
	nv := n &^ 3
	if nv > 0 {
		panel2x2Vec4(s00, s01, s10, s11, &b0[0], &b1[0], &c0[0], &c1[0], nv)
	}
	for j := nv; j < n; j++ {
		v0, v1 := b0[j], b1[j]
		c0[j] = c0[j] + s00*v0 + s01*v1
		c1[j] = c1[j] + s10*v0 + s11*v1
	}
}

func dot4NEON(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	nv := n &^ 3
	var dot float32
	if nv > 0 {
		dot = dot4Vec(&a[0], &b[0], nv)
	}
	for p := nv; p < n; p++ {
		dot += a[p] * b[p]
	}
	return dot
}

func dot4PairNEON(a0, a1, b []float32) (float32, float32) {
	n := len(a0)
	a1 = a1[:n]
	b = b[:n]
	nv := n &^ 3
	var d0, d1 float32
	if nv > 0 {
		d0, d1 = dot4PairVec(&a0[0], &a1[0], &b[0], nv)
	}
	for p := nv; p < n; p++ {
		d0 += a0[p] * b[p]
		d1 += a1[p] * b[p]
	}
	return d0, d1
}
