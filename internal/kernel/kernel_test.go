package kernel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
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
	base0 := probeFloats(maxN+maxOff, 0x9e3779b97f4a7c15)
	base1 := probeFloats(maxN+maxOff, 0xbf58476d1ce4e5b9)
	base2 := probeFloats(maxN+maxOff, 0x94d049bb133111eb)
	base3 := probeFloats(maxN+maxOff, 0x2545f4914f6cdd1d)

	for _, n := range testLens {
		for _, off := range testOffsets {
			xa := base0[off : off+n]
			xb := base1[off : off+n]
			xc := base2[off : off+n]

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

// TestEmptyRows pins the empty-slice behavior: every vector kernel must be a
// no-op on zero-length slices.
func TestEmptyRows(t *testing.T) {
	var empty []float32
	Add(empty, empty)
	ReLU(empty, empty)
	ReLUMask(empty, empty, empty)
}

// TestImplConsistent checks that the dispatch metadata matches the table:
// the name is a known implementation, followed by the entries that fell back
// exactly when a body was refused, and the init-time probes accept what is
// installed (re-run here, they must agree).
func TestImplConsistent(t *testing.T) {
	switch impl {
	case "scalar", "avx2", "avx512", "neon":
	default:
		t.Fatalf("unknown impl %q", impl)
	}
	if (Impl() == impl) != (ProbeErr() == nil) {
		t.Fatalf("Impl() is %q with refusals %v", Impl(), ProbeErr())
	}
	if err := probeInstalled(); err != nil {
		t.Fatalf("the installed table fails its own probes: %v", err)
	}
}

// probeInstalled runs every entry's probe on the body the table holds.
func probeInstalled() error {
	return errors.Join(probeTile(Tile), probeSpMMRow(SpMMRow), probeAdd(Add), probeReLU(ReLU), probeReLUMask(ReLUMask),
		probeExpRow(ExpRow), probeNormRow(NormRow))
}

// BenchmarkVerifyImpls times every entry's probe on the installed table:
// every process's init runs each once for each body an entry tries.
func BenchmarkVerifyImpls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := probeInstalled(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTileMatchesDefinition holds the dispatched tile (and with it the scalar
// oracle) to the contract's own words — each element starts from C or 0 and
// adds a*b for k ascending — at every extent, both stride orientations, both
// accumulate modes and misaligned operands, and checks that nothing outside
// the rows x cols window of C is written.
func TestTileMatchesDefinition(t *testing.T) {
	const lda, ldb, ldc, maxK = 67, NR + 3, NR + 5, 65
	a := probeFloats(maxK*lda+3, 0x9e3779b97f4a7c15)
	b := probeFloats(maxK*ldb+3, 0xbf58476d1ce4e5b9)
	c0 := probeFloats(7+MR*ldc, 0x2545f4914f6cdd1d)
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
		mustPanic(t, "Tile with "+name+" out of range", call)
	}
}

func mustPanic(t *testing.T, what string, call func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	call()
}

// TestSpMMRowMatchesScalar holds the installed row kernel to the scalar one
// on random shapes: any strip width, strides at and past it, rows of zero to
// a hundred entries anywhere in a tile (so the look-ahead runs into the next
// rows, and off the tile's end), ones and every value form, from C and from
// 0, with every operand misaligned. C's guard band is part of the comparison.
func TestSpMMRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for tc := 0; tc < 4000; tc++ {
		w, xrows, off := 1+rng.Intn(SpMMStrip), 1+rng.Intn(40), rng.Intn(4)
		xs := w + rng.Intn(3)*rng.Intn(70)
		x := probeFloats(off+xrows*xs, rng.Uint64()|1)[off:]
		cols := make([]int32, 1+rng.Intn(150))
		for i := range cols {
			cols[i] = int32(rng.Intn(xrows))
		}
		first := rng.Intn(len(cols))
		n := rng.Intn(min(100, len(cols)-first) + 1)
		form := ValForm(tc / 3 % 3)
		vals := probeFloats(off+max(len(cols), xrows), rng.Uint64()|1)[off:]
		cols = cols[first:]
		switch form {
		case PerEntry:
			vals = vals[first:]
		case RowConst:
			vals = vals[first : first+1]
		}
		if tc%3 == 0 {
			vals = nil
		}
		acc := tc%2 == 0
		got := probeFloats(off+3+w+3, rng.Uint64()|1)
		want := append([]float32(nil), got...)
		SpMMRow(got[off+3:off+3+w], x, xs, xrows, cols, vals, form, n, acc)
		spmmRowScalar(want[off+3:off+3+w], x, xs, xrows, cols, vals, form, n, acc)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("SpMMRow w=%d xs=%d xrows=%d n=%d of %d acc=%v form=%d valued=%v off=%d: c[%d]=%x want %x under impl %q",
					w, xs, xrows, n, len(cols), acc, form, vals != nil, off, i-off-3, math.Float32bits(got[i]), math.Float32bits(want[i]), Impl())
			}
		}
	}
}

// TestSpMMRowMatchesDefinition holds the scalar oracle (and the installed
// entry) to the contract's own words on one hand-sized row.
func TestSpMMRowMatchesDefinition(t *testing.T) {
	x := []float32{1, 2, 3, 10, 20, 30, 100, 200, 300} // 3 rows, stride 3
	cols, vals := []int32{2, 0, 1, 1}, []float32{0.5, 2, -1, 7}
	for name, tc := range map[string]struct {
		vals []float32
		form ValForm
		acc  bool
		want [2]float32
	}{
		"valued from 0":    {vals, PerEntry, false, [2]float32{0.5*100 + 2*1, 0.5*200 + 2*2}},
		"valued from C":    {vals, PerEntry, true, [2]float32{5 + 0.5*100 + 2*1, 6 + 0.5*200 + 2*2}},
		"ones from C":      {nil, PerEntry, true, [2]float32{5 + 100 + 1, 6 + 200 + 2}},
		"ones by column":   {nil, ByColumn, false, [2]float32{100 + 1, 200 + 2}},
		"row value from 0": {vals[3:], RowConst, false, [2]float32{7*100 + 7*1, 7*200 + 7*2}},
		"column values":    {vals[:3], ByColumn, false, [2]float32{-1*100 + 0.5*1, -1*200 + 0.5*2}},
		"column values +C": {vals[1:], ByColumn, true, [2]float32{5 + 7*100 + 2*1, 6 + 7*200 + 2*2}},
	} {
		c := []float32{5, 6, 7}
		SpMMRow(c[:2], x, 3, 3, cols, tc.vals, tc.form, 2, tc.acc)
		if c[0] != tc.want[0] || c[1] != tc.want[1] || c[2] != 7 {
			t.Errorf("%s: c = %v, want %v then 7", name, c, tc.want)
		}
	}
}

// TestSpMMRowRejectsOutOfRange: the wrapper must panic, not hand the assembly
// a pointer, on a column outside X, values shorter than the row, a strip
// wider than the accumulators, a row longer than its tile or an X too short
// for its last row's strip.
func TestSpMMRowRejectsOutOfRange(t *testing.T) {
	buf := make([]float32, 4*SpMMStrip)
	cols := []int32{0, 1, 2, 3}
	for name, call := range map[string]func(){
		"column":        func() { SpMMRow(buf[:8], buf, 8, 3, cols, nil, PerEntry, 4, false) },
		"neg column":    func() { SpMMRow(buf[:8], buf, 8, 4, []int32{1, -1}, nil, PerEntry, 2, false) },
		"short vals":    func() { SpMMRow(buf[:8], buf, 8, 4, cols, buf[:3], PerEntry, 4, false) },
		"no row value":  func() { SpMMRow(buf[:8], buf, 8, 4, cols, buf[:0], RowConst, 4, false) },
		"short columns": func() { SpMMRow(buf[:8], buf, 8, 4, cols[:1], buf[:3], ByColumn, 1, false) },
		"unknown form":  func() { SpMMRow(buf[:8], buf, 8, 4, cols, buf[:4], ByColumn+1, 4, false) },
		"wide strip":    func() { SpMMRow(buf[:SpMMStrip+1], buf, SpMMStrip+1, 2, cols, nil, PerEntry, 1, false) },
		"empty strip":   func() { SpMMRow(buf[:0], buf, 8, 4, cols, nil, PerEntry, 1, false) },
		"long row":      func() { SpMMRow(buf[:8], buf, 8, 4, cols, nil, PerEntry, 5, false) },
		"short x":       func() { SpMMRow(buf[:8], buf[:31], 8, 4, cols, nil, PerEntry, 1, false) },
	} {
		mustPanic(t, "SpMMRow with "+name+" out of range", call)
	}
}

// TestSpMMRowRejectsBadColumn: a column outside X's rows panics wherever it
// sits in the row, at every vector count with a full and a masked last
// vector, from C and from 0, with ones and with the value the column itself
// indexes, and leaves C and its guard band bit for bit as they were. On
// amd64 this is the assembly body's own check.
func TestSpMMRowRejectsBadColumn(t *testing.T) {
	const xrows, xs, n = 5, SpMMStrip + 3, 7
	x := probeFloats(xrows*xs, 0x9e3779b97f4a7c15)
	colVals := probeFloats(xrows, 0xd6e8feb86659fd93)
	for v := 1; v <= SpMMStrip/8; v++ {
		for _, w := range []int{8 * v, 8*v - 3} {
			for _, acc := range []bool{false, true} {
				for _, at := range []int{0, n / 2, n - 1} {
					for _, col := range []int32{-1, math.MinInt32, xrows, math.MaxInt32} {
						for _, byCol := range []bool{false, true} {
							cols := []int32{0, 4, 1, 3, 2, 4, 0, 1, 2}
							cols[at] = col
							got := probeFloats(3+w+3, uint64(w)<<8|uint64(at))
							want := append([]float32(nil), got...)
							what := fmt.Sprintf("SpMMRow w=%d acc=%v column %d at %d by column %v", w, acc, col, at, byCol)
							func() {
								defer func() {
									if r := recover(); r != errSpMMColumn {
										t.Errorf("%s: recovered %v, want %q", what, r, errSpMMColumn)
									}
								}()
								if byCol {
									SpMMRow(got[3:3+w], x, xs, xrows, cols, colVals, ByColumn, n, acc)
								} else {
									SpMMRow(got[3:3+w], x, xs, xrows, cols, nil, PerEntry, n, acc)
								}
							}()
							bitsEqual(t, what, w, 3, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSpMMRowIgnoresColumnsPastRow: the entries past n belong to the next
// rows and are only prefetched, so a bad column there is not this row's
// error; the result is the scalar oracle's.
func TestSpMMRowIgnoresColumnsPastRow(t *testing.T) {
	const xrows, xs, n = 5, SpMMStrip, 3
	x := probeFloats(xrows*xs, 0xbf58476d1ce4e5b9)
	vals := probeFloats(40, 0x94d049bb133111eb)
	for _, col := range []int32{-1, math.MinInt32, xrows, math.MaxInt32} {
		for _, w := range []int{5, SpMMStrip} {
			cols := make([]int32, 40)
			for i := range cols {
				cols[i] = col
			}
			copy(cols, []int32{4, 0, 2})
			got := probeFloats(w, 0x2545f4914f6cdd1d)
			want := append([]float32(nil), got...)
			SpMMRow(got, x, xs, xrows, cols, vals, PerEntry, n, true)
			spmmRowScalar(want, x, xs, xrows, cols, vals, PerEntry, n, true)
			bitsEqual(t, fmt.Sprintf("SpMMRow w=%d with column %d past the row", w, col), w, 0, got, want)
		}
	}
}

// TestVerifyRefusesUncheckedRowKernel: since the column proof lives in the
// body, the install probe must refuse a row kernel that reads a column
// outside X or that writes C before it rejects one, even when it matches the
// scalar kernel on every valid row.
func TestVerifyRefusesUncheckedRowKernel(t *testing.T) {
	for name, row := range map[string]func(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool){
		"bounds columns by x's length": func(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool) {
			spmmRowScalar(c, x, xs, len(x)/xs, cols, vals, form, n, acc)
		},
		"writes C, then rejects": func(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool) {
			defer func() {
				if r := recover(); r != nil {
					clear(c)
					panic(r)
				}
			}()
			spmmRowScalar(c, x, xs, xrows, cols, vals, form, n, acc)
		},
		"reads every form as a stream": func(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool) {
			if vals != nil && form != PerEntry {
				vals = vals[:cap(vals)]
			}
			spmmRowScalar(c, x, xs, xrows, cols, vals, PerEntry, n, acc)
		},
		"reads column values by entry": func(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool) {
			if vals != nil && form == ByColumn {
				vals, form = vals[:cap(vals)], PerEntry
			}
			spmmRowScalar(c, x, xs, xrows, cols, vals, form, n, acc)
		},
	} {
		if probeSpMMRow(row) == nil {
			t.Errorf("%s: the SpMMRow probe accepts it", name)
		}
	}
}

// TestPanickingCandidateIsRefused: a tile body that panics in the install
// probe is refused by name, the entry's next body installs, and Impl names
// the entry and the body it fell back to. The tile
// splits its rows in two and hands the lower half to its body even when that
// half is empty, and the body panics on zero rows.
func TestPanickingCandidateIsRefused(t *testing.T) {
	saved, savedRefused, savedFallbacks := Tile, refused, fallbacks
	t.Cleanup(func() { Tile, refused, fallbacks = saved, savedRefused, savedFallbacks })
	refused, fallbacks = nil, nil
	body := func(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool) {
		if rows == 0 {
			panic("zero-row tile")
		}
		tileScalar(rows, cols, k, a, ars, aks, b, bs, c, cs, acc)
	}
	split := func(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool) {
		top := min(rows, MR/2)
		body(top, cols, k, a, ars, aks, b, bs, c, cs, acc)
		body(rows-top, cols, k, a[top*ars:], ars, aks, b, bs, c[top*cs:], cs, acc)
	}
	if got := install("Tile", &Tile, probeTile, append(offer(true, "panicky", split), offer(true, "next", tileScalar)...)); got != "next" {
		t.Fatalf("installed %q, want the next body", got)
	}
	if err := ProbeErr(); err == nil || !strings.Contains(err.Error(), "panicky Tile") || !strings.Contains(err.Error(), "zero-row tile") {
		t.Fatalf("ProbeErr() = %v, want panicky's refusal with its panic", err)
	}
	if want := impl + " (Tile next)"; Impl() != want {
		t.Fatalf("Impl() = %q, want %q", Impl(), want)
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
	grad := probeFloats(len(sweep), 0x94d049bb133111eb)
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
