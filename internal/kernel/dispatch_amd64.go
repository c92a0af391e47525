//go:build simd && amd64

package kernel

// Assembly bodies in asm_amd64.s. The Vec8 kernels process a multiple of 8
// elements (one YMM register width); dot4Vec/dot4PairVec process a multiple
// of 4 (one XMM accumulator reproducing dot4's partial-sum lanes). All of
// them use separate VMULPS/VADDPS — never fused multiply-add — because the
// amd64 Go compiler does not fuse float32 mul+add either, and bit-identity
// with the scalar path is the dispatch contract.
func addVec8(dst, x *float32, n int)
func add2Vec8(dst, x0, x1 *float32, n int)
func axpyVec8(a float32, x, dst *float32, n int)
func axpy2Vec8(a0, a1 float32, x0, x1, dst *float32, n int)
func panel2x2Vec8(s00, s01, s10, s11 float32, b0, b1, c0, c1 *float32, n int)
func dot4Vec(a, b *float32, n int) float32
func dot4PairVec(a0, a1, b *float32, n int) (d0, d1 float32)

func init() {
	if !hasAVX2() {
		return
	}
	// verifyAndInstall re-checks bit-identity against the scalar kernels
	// on rounding-sensitive probes before swapping the table; a candidate
	// that deviates (a miscompiled or misassembled kernel) leaves the
	// scalar path in place instead of corrupting training.
	verifyAndInstall(impls{
		name: "avx2",
		add:  addAVX2, add2: add2AVX2,
		axpy: axpyAVX2, axpy2: axpy2AVX2,
		panel2x2: panel2x2AVX2,
		dot4:     dot4AVX2, dot4Pair: dot4PairAVX2,
	})
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

func add2AVX2(x0, x1, dst []float32) {
	n := len(dst)
	x0 = x0[:n]
	x1 = x1[:n]
	nv := n &^ 7
	if nv > 0 {
		add2Vec8(&dst[0], &x0[0], &x1[0], nv)
	}
	for j := nv; j < n; j++ {
		dst[j] = dst[j] + x0[j] + x1[j]
	}
}

func axpyAVX2(a float32, x, dst []float32) {
	n := len(dst)
	x = x[:n]
	nv := n &^ 7
	if nv > 0 {
		axpyVec8(a, &x[0], &dst[0], nv)
	}
	for j := nv; j < n; j++ {
		dst[j] += a * x[j]
	}
}

func axpy2AVX2(a0, a1 float32, x0, x1, dst []float32) {
	n := len(dst)
	x0 = x0[:n]
	x1 = x1[:n]
	nv := n &^ 7
	if nv > 0 {
		axpy2Vec8(a0, a1, &x0[0], &x1[0], &dst[0], nv)
	}
	for j := nv; j < n; j++ {
		dst[j] = dst[j] + a0*x0[j] + a1*x1[j]
	}
}

func panel2x2AVX2(s00, s01, s10, s11 float32, b0, b1, c0, c1 []float32) {
	n := len(c0)
	b0 = b0[:n]
	b1 = b1[:n]
	c1 = c1[:n]
	nv := n &^ 7
	if nv > 0 {
		panel2x2Vec8(s00, s01, s10, s11, &b0[0], &b1[0], &c0[0], &c1[0], nv)
	}
	for j := nv; j < n; j++ {
		v0, v1 := b0[j], b1[j]
		c0[j] = c0[j] + s00*v0 + s01*v1
		c1[j] = c1[j] + s10*v0 + s11*v1
	}
}

func dot4AVX2(a, b []float32) float32 {
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

func dot4PairAVX2(a0, a1, b []float32) (float32, float32) {
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
