package kernel

import (
	"math"
	"testing"
)

// testLens covers the shapes the wrappers must get right: empty, single
// element, sub-lane tails, exact multiples of both vector widths (4 and 8),
// straddlers on either side, and long runs. Combined with the misaligned
// offsets below, every (vector body, scalar tail) split is exercised.
var testLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 255, 256, 257}

// offsets shift the slices off their allocation start so the SIMD bodies
// see misaligned addresses (float32 slices are only 4-byte aligned at
// best once offset); the kernels use unaligned loads throughout.
var testOffsets = []int{0, 1, 2, 3}

func fill(t *testing.T, n int, seed uint64) []float32 {
	t.Helper()
	v := make([]float32, n)
	s := seed
	for i := range v {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		v[i] = float32(int32(s)) / (1 << 28)
	}
	return v
}

func bitsEqual(t *testing.T, op string, n, off int, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s n=%d off=%d: got[%d]=%x (%g) want %x (%g) under impl %q",
				op, n, off, i, math.Float32bits(got[i]), got[i],
				math.Float32bits(want[i]), want[i], Impl())
		}
	}
}

// TestDispatchBitIdentity pins every dispatched kernel to the scalar
// reference bit for bit over odd and misaligned shapes. Under the default
// build this is scalar vs scalar (a wrapper sanity check); under the simd
// tag it is the AVX2/NEON contract.
func TestDispatchBitIdentity(t *testing.T) {
	const maxN = 257
	const maxOff = 3
	base0 := fill(t, maxN+maxOff, 0x9e3779b97f4a7c15)
	base1 := fill(t, maxN+maxOff, 0xbf58476d1ce4e5b9)
	base2 := fill(t, maxN+maxOff, 0x94d049bb133111eb)
	base3 := fill(t, maxN+maxOff, 0x2545f4914f6cdd1d)
	scalars := []float32{1.5, -0.7331, 3.0000002, -1e-8, 0}

	for _, n := range testLens {
		for _, off := range testOffsets {
			xa := base0[off : off+n]
			xb := base1[off : off+n]
			xc := base2[off : off+n]
			a0 := scalars[n%len(scalars)]
			a1 := scalars[(n+2)%len(scalars)]

			dup := func(src []float32) (got, want []float32) {
				got = append([]float32(nil), src...)
				want = append([]float32(nil), src...)
				return
			}

			got, want := dup(base3[off : off+n])
			Add(xa, got)
			addScalar(xa, want)
			bitsEqual(t, "Add", n, off, got, want)

			got, want = dup(base3[off : off+n])
			Add2(xa, xb, got)
			add2Scalar(xa, xb, want)
			bitsEqual(t, "Add2", n, off, got, want)

			got, want = dup(base3[off : off+n])
			Axpy(a0, xa, got)
			axpyScalar(a0, xa, want)
			bitsEqual(t, "Axpy", n, off, got, want)

			got, want = dup(base3[off : off+n])
			Axpy2(a0, a1, xa, xb, got)
			axpy2Scalar(a0, a1, xa, xb, want)
			bitsEqual(t, "Axpy2", n, off, got, want)

			g0, w0 := dup(base2[off : off+n])
			g1, w1 := dup(base3[off : off+n])
			Panel2x2(a0, a1, -a1, a0, xa, xb, g0, g1)
			panel2x2Scalar(a0, a1, -a1, a0, xa, xb, w0, w1)
			bitsEqual(t, "Panel2x2/c0", n, off, g0, w0)
			bitsEqual(t, "Panel2x2/c1", n, off, g1, w1)

			gd := Dot4(xa, xb)
			wd := dot4Scalar(xa, xb)
			if math.Float32bits(gd) != math.Float32bits(wd) {
				t.Fatalf("Dot4 n=%d off=%d: got %x want %x under impl %q",
					n, off, math.Float32bits(gd), math.Float32bits(wd), Impl())
			}

			gp0, gp1 := Dot4Pair(xa, xb, xc)
			wp0, wp1 := dot4PairScalar(xa, xb, xc)
			if math.Float32bits(gp0) != math.Float32bits(wp0) || math.Float32bits(gp1) != math.Float32bits(wp1) {
				t.Fatalf("Dot4Pair n=%d off=%d: got (%x,%x) want (%x,%x) under impl %q",
					n, off, math.Float32bits(gp0), math.Float32bits(gp1),
					math.Float32bits(wp0), math.Float32bits(wp1), Impl())
			}
		}
	}
}

// TestEmptyRows pins the empty-slice behavior the SpMM tail cases rely on:
// every kernel must be a no-op on zero-length slices.
func TestEmptyRows(t *testing.T) {
	var empty []float32
	Add(empty, empty)
	Add2(empty, empty, empty)
	Axpy(2, empty, empty)
	Axpy2(2, 3, empty, empty, empty)
	Panel2x2(1, 2, 3, 4, empty, empty, empty, empty)
	if d := Dot4(empty, empty); d != 0 {
		t.Fatalf("Dot4 of empty = %g, want 0", d)
	}
	if d0, d1 := Dot4Pair(empty, empty, empty); d0 != 0 || d1 != 0 {
		t.Fatalf("Dot4Pair of empty = (%g,%g), want (0,0)", d0, d1)
	}
}

// TestImplConsistent checks that the dispatch metadata matches the table:
// the name is a known implementation and the init-time verifier accepted
// what is installed (verifyImpls re-run here must agree).
func TestImplConsistent(t *testing.T) {
	switch Impl() {
	case "scalar", "avx2", "neon":
	default:
		t.Fatalf("unknown impl %q", Impl())
	}
	ok := verifyImpls(impls{
		name: Impl(),
		add:  Add, add2: Add2, axpy: Axpy, axpy2: Axpy2,
		panel2x2: Panel2x2, dot4: Dot4, dot4Pair: Dot4Pair,
	})
	if !ok {
		t.Fatalf("installed impl %q fails its own verification probes", Impl())
	}
}
