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

// TestDispatchBitIdentity pins every dispatched vector kernel to the scalar
// reference bit for bit over odd and misaligned shapes (the tile has its own
// table below). Under the race detector this is scalar vs scalar (a wrapper
// sanity check); in every other build it is the AVX2/NEON contract.
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

			got, want = dup(base3[off : off+n])
			ReLU(got, xa)
			reluScalar(want, xa)
			bitsEqual(t, "ReLU", n, off, got, want)

			got, want = dup(xa)
			ReLU(got, got)
			reluScalar(want, want)
			bitsEqual(t, "ReLU in place", n, off, got, want)

			got, want = dup(base3[off : off+n])
			ReLUMask(got, xb, xc)
			reluMaskScalar(want, xb, xc)
			bitsEqual(t, "ReLUMask", n, off, got, want)

			got, want = dup(xb)
			ReLUMask(got, xa, got)
			reluMaskScalar(want, xa, want)
			bitsEqual(t, "ReLUMask over act", n, off, got, want)
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
	ReLU(empty, empty)
	ReLUMask(empty, empty, empty)
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
	err := verifyImpls(impls{
		name: Impl(),
		add:  Add, add2: Add2, axpy: Axpy, axpy2: Axpy2,
		tile: Tile, relu: ReLU, reluMask: ReLUMask,
	})
	if err != nil {
		t.Fatalf("installed impl fails its own verification probes: %v", err)
	}
}

// TestTileMatchesDefinition holds the dispatched tile (and with it the scalar
// oracle) to the contract's own words — each element starts from C or 0 and
// adds a*b for k ascending — at every extent, both stride orientations, both
// accumulate modes and misaligned operands, and checks that nothing outside
// the rows x cols window of C is written.
func TestTileMatchesDefinition(t *testing.T) {
	const lda, ldb, ldc, maxK = 67, NR + 3, NR + 5, 65
	a := fill(t, maxK*lda+3, 0x9e3779b97f4a7c15)
	b := fill(t, maxK*ldb+3, 0xbf58476d1ce4e5b9)
	c0 := fill(t, 7+MR*ldc, 0x2545f4914f6cdd1d)
	for _, k := range []int{0, 1, 2, 3, 8, 33, maxK} {
		for tc := 0; tc < MR*NR*4; tc++ {
			rows, cols, acc, off := 1+tc%MR, 1+tc/MR%NR, tc/(MR*NR)&1 == 1, tc%len(testOffsets)
			ars, aks := lda, 1
			if tc/(MR*NR)&2 == 2 {
				ars, aks = 1, lda
			}
			got := append([]float32(nil), c0...)
			want := append([]float32(nil), c0...)
			Tile(rows, cols, k, a[off:], ars, aks, b[off:], ldb, got[7-off:], ldc, acc)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					var s float32
					if acc {
						s = want[7-off+i*ldc+j]
					}
					for p := 0; p < k; p++ {
						s += a[off+i*ars+p*aks] * b[off+p*ldb+j]
					}
					want[7-off+i*ldc+j] = s
				}
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("Tile rows=%d cols=%d k=%d strides=(%d,%d) acc=%v off=%d: c[%d]=%x want %x under impl %q",
						rows, cols, k, ars, aks, acc, off, i-(7-off), math.Float32bits(got[i]), math.Float32bits(want[i]), Impl())
				}
			}
		}
	}
}

// TestTileRejectsOutOfRange: the wrapper must panic, not hand the assembly a
// pointer, when a stride would carry an operand past its slice.
func TestTileRejectsOutOfRange(t *testing.T) {
	buf := make([]float32, 64)
	for name, call := range map[string]func(){
		"a":    func() { Tile(2, 2, 4, buf[:7], 4, 1, buf, 2, buf, 2, false) },
		"b":    func() { Tile(2, 2, 4, buf, 4, 1, buf[:7], 2, buf, 2, false) },
		"c":    func() { Tile(2, 2, 4, buf, 4, 1, buf, 2, buf[:3], 2, false) },
		"rows": func() { Tile(MR+1, 2, 4, buf, 4, 1, buf, 2, buf, 2, false) },
		"cols": func() { Tile(2, NR+1, 1, buf, 4, 1, buf, 17, buf, 17, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Tile with %s out of range did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestReLUSemantics pins the two selects on the values a sign test can get
// wrong: NaN passes ReLU (either sign, payload kept) and fails ReLUMask,
// -0 and negatives give +0, denormals and infinities follow their sign.
func TestReLUSemantics(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero, tiny := float32(math.Copysign(0, -1)), float32(math.SmallestNonzeroFloat32)
	// 19 elements: two full vectors and a tail on AVX2, four and a tail on NEON.
	src := []float32{nan, -nan, 0, negZero, inf, -inf, tiny, -tiny, 1.5, -1.5, nan, negZero, -tiny, tiny, -inf, inf, -nan, 0, 2}
	want := []float32{nan, -nan, 0, 0, inf, 0, tiny, 0, 1.5, 0, nan, 0, 0, tiny, 0, inf, -nan, 0, 2}
	got := make([]float32, len(src))
	ReLU(got, src)
	bitsEqual(t, "ReLU", len(src), 0, got, want)

	// The bit-range tests against the float predicates they stand for, on a
	// stride through every exponent and both signs plus the neighbours of
	// each range boundary.
	var sweep []float32
	for u := uint64(0); u < 1<<32; u += 65521 {
		sweep = append(sweep, math.Float32frombits(uint32(u)))
	}
	for _, edge := range []uint32{0, 0x7f800000, 0x80000000, 0xff800000} {
		for d := uint32(0); d < 3; d++ {
			sweep = append(sweep, math.Float32frombits(edge+d), math.Float32frombits(edge-d))
		}
	}
	grad := fill(t, len(sweep), 0x94d049bb133111eb)
	relu, masked := make([]float32, len(sweep)), make([]float32, len(sweep))
	ReLU(relu, sweep)
	ReLUMask(masked, grad, sweep)
	for j, v := range sweep {
		wantReLU, wantMask := v, float32(0)
		if v <= 0 {
			wantReLU = 0
		}
		if v > 0 {
			wantMask = grad[j]
		}
		if math.Float32bits(relu[j]) != math.Float32bits(wantReLU) || math.Float32bits(masked[j]) != math.Float32bits(wantMask) {
			t.Fatalf("x=%x: ReLU %x want %x, ReLUMask %x want %x under impl %q", math.Float32bits(v),
				math.Float32bits(relu[j]), math.Float32bits(wantReLU), math.Float32bits(masked[j]), math.Float32bits(wantMask), Impl())
		}
	}
}
