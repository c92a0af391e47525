// Package kernel holds the innermost float32 loops of the dense and sparse
// kernels behind a runtime-dispatch table. The exported entry points are
// function variables initialized to the pure-Go scalar implementations
// below; building with the `simd` tag lets an arch-specific init replace
// them with AVX2 (amd64) or NEON (arm64) assembly when the CPU supports it.
//
// The dispatch contract is bit-identity: every implementation bound to a
// variable must produce exactly the bits the scalar implementation produces
// for all finite inputs. That is what lets the SpMMFlat/GemmFlat oracles,
// the shadow-replay sanitizer, and the adversarial-replay suites keep
// passing regardless of which implementation is active. Concretely:
//
//   - On amd64 the Go compiler never fuses float32 mul+add, so the AVX2
//     kernels use separate VMULPS/VADDPS (never VFMADD*) and round each
//     multiply and add exactly like the scalar expression.
//   - On arm64 the Go compiler *does* fuse `d += a*x` into FMADDS, so the
//     NEON kernels use VFMLA (fused per lane) to match, and express plain
//     vector adds as VFMLA with a broadcast 1.0 (x*1.0 is exact, so
//     fma(x, 1, d) rounds once exactly like FADD).
//   - Dot products keep dot4's four-partial-sum split: one 4-lane vector
//     accumulator reproduces the scalar partials d0..d3 per lane, and the
//     reduction adds them in the scalar order (d0+d1)+(d2+d3).
//
// Tail elements past the widest vector multiple are always handled by the
// same scalar expressions, so odd lengths and misaligned slices are safe
// and bit-identical too.
//
// All slice arguments of one call must have the same length (callers slice
// before calling); the dst (or first dot operand) length is authoritative.
// Swapping implementations is not synchronized — dispatch happens in init,
// before any kernel runs.
package kernel

// Dispatch table. Default scalar; overridden by the arch init under the
// `simd` build tag when the CPU qualifies.
var (
	// Add computes dst[j] += x[j].
	Add func(x, dst []float32) = addScalar
	// Add2 computes dst[j] = dst[j] + x0[j] + x1[j] (left-associated,
	// identical per element to two sequential Adds).
	Add2 func(x0, x1, dst []float32) = add2Scalar
	// Axpy computes dst[j] += a*x[j].
	Axpy func(a float32, x, dst []float32) = axpyScalar
	// Axpy2 computes dst[j] = dst[j] + a0*x0[j] + a1*x1[j]
	// (left-associated, identical per element to two sequential Axpys).
	Axpy2 func(a0, a1 float32, x0, x1, dst []float32) = axpy2Scalar
	// Panel2x2 is the blocked-GeMM micro-kernel: two C rows by two k
	// steps, c0[j] = c0[j] + s00*b0[j] + s01*b1[j] and
	// c1[j] = c1[j] + s10*b0[j] + s11*b1[j].
	Panel2x2 func(s00, s01, s10, s11 float32, b0, b1, c0, c1 []float32) = panel2x2Scalar
	// Dot4 computes the a·b dot product with four independent partial
	// sums reduced as (d0+d1)+(d2+d3).
	Dot4 func(a, b []float32) float32 = dot4Scalar
	// Dot4Pair computes a0·b and a1·b together so b is loaded once; each
	// dot keeps Dot4's exact partial-sum split.
	Dot4Pair func(a0, a1, b []float32) (float32, float32) = dot4PairScalar
)

var impl = "scalar"

// Impl names the active implementation: "scalar", "avx2", or "neon".
func Impl() string { return impl }

func addScalar(x, dst []float32) {
	x = x[:len(dst)]
	for j := range dst {
		dst[j] += x[j]
	}
}

func add2Scalar(x0, x1, dst []float32) {
	n := len(dst)
	x0 = x0[:n]
	x1 = x1[:n]
	for j := 0; j < n; j++ {
		dst[j] = dst[j] + x0[j] + x1[j]
	}
}

func axpyScalar(a float32, x, dst []float32) {
	x = x[:len(dst)]
	for j := range dst {
		dst[j] += a * x[j]
	}
}

func axpy2Scalar(a0, a1 float32, x0, x1, dst []float32) {
	n := len(dst)
	x0 = x0[:n]
	x1 = x1[:n]
	for j := 0; j < n; j++ {
		dst[j] = dst[j] + a0*x0[j] + a1*x1[j]
	}
}

func panel2x2Scalar(s00, s01, s10, s11 float32, b0, b1, c0, c1 []float32) {
	n := len(c0)
	b0 = b0[:n]
	b1 = b1[:n]
	c1 = c1[:n]
	for j := 0; j < n; j++ {
		v0, v1 := b0[j], b1[j]
		c0[j] = c0[j] + s00*v0 + s01*v1
		c1[j] = c1[j] + s10*v0 + s11*v1
	}
}

func dot4Scalar(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var d0, d1, d2, d3 float32
	p := 0
	for ; p+4 <= n; p += 4 {
		d0 += a[p] * b[p]
		d1 += a[p+1] * b[p+1]
		d2 += a[p+2] * b[p+2]
		d3 += a[p+3] * b[p+3]
	}
	dot := (d0 + d1) + (d2 + d3)
	for ; p < n; p++ {
		dot += a[p] * b[p]
	}
	return dot
}

func dot4PairScalar(a0, a1, b []float32) (float32, float32) {
	n := len(a0)
	a1 = a1[:n]
	b = b[:n]
	var p0, p1, p2, p3 float32
	var q0, q1, q2, q3 float32
	p := 0
	for ; p+4 <= n; p += 4 {
		r0, r1, r2, r3 := b[p], b[p+1], b[p+2], b[p+3]
		p0 += a0[p] * r0
		p1 += a0[p+1] * r1
		p2 += a0[p+2] * r2
		p3 += a0[p+3] * r3
		q0 += a1[p] * r0
		q1 += a1[p+1] * r1
		q2 += a1[p+2] * r2
		q3 += a1[p+3] * r3
	}
	d0 := (p0 + p1) + (p2 + p3)
	d1 := (q0 + q1) + (q2 + q3)
	for ; p < n; p++ {
		d0 += a0[p] * b[p]
		d1 += a1[p] * b[p]
	}
	return d0, d1
}
