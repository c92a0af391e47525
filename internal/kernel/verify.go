package kernel

import "math"

// impls bundles one complete candidate implementation of the dispatch
// table so an arch init can hand it to verifyAndInstall as a unit.
type impls struct {
	name     string
	add      func(x, dst []float32)
	add2     func(x0, x1, dst []float32)
	axpy     func(a float32, x, dst []float32)
	axpy2    func(a0, a1 float32, x0, x1, dst []float32)
	panel2x2 func(s00, s01, s10, s11 float32, b0, b1, c0, c1 []float32)
	dot4     func(a, b []float32) float32
	dot4Pair func(a0, a1, b []float32) (float32, float32)
}

// verifyAndInstall checks a candidate implementation against the scalar
// kernels on deterministic rounding-sensitive vectors and installs it only
// if every output is bit-identical. A candidate that fails any probe is
// discarded and the table stays scalar — the guard that lets us ship
// assembly for platforms the build host cannot execute: a wrong kernel
// (e.g. an unexpected fused multiply-add) degrades to the slow path
// instead of corrupting training. It runs from init, before any kernel
// call, so swapping the table is unsynchronized by design.
func verifyAndInstall(c impls) bool {
	if !verifyImpls(c) {
		return false
	}
	impl = c.name
	Add = c.add
	Add2 = c.add2
	Axpy = c.axpy
	Axpy2 = c.axpy2
	Panel2x2 = c.panel2x2
	Dot4 = c.dot4
	Dot4Pair = c.dot4Pair
	return true
}

// verifyLens covers empty, sub-lane, exact-lane, and straddling lengths
// for every vector width in use (4 and 8), plus a long run.
var verifyLens = [...]int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100}

func verifyImpls(c impls) bool {
	const maxN = 100
	// Rounding-sensitive probe data: xorshift-derived floats with full
	// mantissas, spanning magnitudes and signs, so a single-rounding FMA
	// where the scalar path double-rounds cannot slip through.
	mk := func(seed uint64) []float32 {
		v := make([]float32, maxN)
		s := seed
		for i := range v {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			v[i] = float32(int32(s)) / (1 << 28)
		}
		return v
	}
	xa, xb, xc, xd := mk(0x9e3779b97f4a7c15), mk(0xbf58476d1ce4e5b9), mk(0x94d049bb133111eb), mk(0x2545f4914f6cdd1d)
	scalars := [...]float32{1.5, -0.7331, 3.0000002, -1e-8}
	eq := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	eq1 := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	buf := func(src []float32, n int) (got, want []float32) {
		got = append([]float32(nil), src[:n]...)
		want = append([]float32(nil), src[:n]...)
		return got, want
	}
	for _, n := range verifyLens {
		a0, a1 := scalars[n%len(scalars)], scalars[(n+1)%len(scalars)]

		got, want := buf(xd, n)
		c.add(xa[:n], got)
		addScalar(xa[:n], want)
		if !eq(got, want) {
			return false
		}

		got, want = buf(xd, n)
		c.add2(xa[:n], xb[:n], got)
		add2Scalar(xa[:n], xb[:n], want)
		if !eq(got, want) {
			return false
		}

		got, want = buf(xd, n)
		c.axpy(a0, xa[:n], got)
		axpyScalar(a0, xa[:n], want)
		if !eq(got, want) {
			return false
		}

		got, want = buf(xd, n)
		c.axpy2(a0, a1, xa[:n], xb[:n], got)
		axpy2Scalar(a0, a1, xa[:n], xb[:n], want)
		if !eq(got, want) {
			return false
		}

		g0, w0 := buf(xc, n)
		g1, w1 := buf(xd, n)
		c.panel2x2(a0, a1, -a1, a0, xa[:n], xb[:n], g0, g1)
		panel2x2Scalar(a0, a1, -a1, a0, xa[:n], xb[:n], w0, w1)
		if !eq(g0, w0) || !eq(g1, w1) {
			return false
		}

		if !eq1(c.dot4(xa[:n], xb[:n]), dot4Scalar(xa[:n], xb[:n])) {
			return false
		}
		gd0, gd1 := c.dot4Pair(xa[:n], xb[:n], xc[:n])
		wd0, wd1 := dot4PairScalar(xa[:n], xb[:n], xc[:n])
		if !eq1(gd0, wd0) || !eq1(gd1, wd1) {
			return false
		}
	}
	return true
}
