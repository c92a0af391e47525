// Package kernel holds the innermost float32 loops of the dense and sparse
// kernels, the loss's softmax row, and the two integer loops of the graph
// generator's seeded stream, behind a runtime-dispatch table. The exported
// entry points are function variables initialized to the pure-Go scalar
// implementations below. An arch-specific init offers each entry the
// AVX-512, AVX2 (amd64) or NEON (arm64) bodies the CPU supports, best first,
// and installs the first its probe accepts, except under the race detector;
// a refused body leaves its entry on the next body or the scalar one and
// every other entry as it was.
//
// The dispatch contract is bit-identity: every implementation bound to a
// variable must produce exactly the bits the scalar implementation produces
// for all finite inputs. That is what lets the SpMMFlat/GemmFlat oracles of
// the sparse and tensor tests, the shadow-replay sanitizer, and the
// adversarial-replay suites keep passing regardless of which implementation
// is active. Concretely:
//
//   - On amd64 the Go compiler never fuses float32 mul+add, so the AVX2 and
//     AVX-512 kernels use separate VMULPS/VADDPS, on YMM and ZMM alike (never
//     VFMADD*), and round each multiply and add exactly like the scalar
//     expression.
//   - On arm64 the Go compiler *does* fuse `d += a*x` into FMADDS, so the
//     NEON kernels use VFMLA (fused per lane) to match, and express plain
//     vector adds as VFMLA with a broadcast 1.0 (x*1.0 is exact, so
//     fma(x, 1, d) rounds once exactly like FADD).
//   - The GeMM tile adds one product per k step to each accumulator, k
//     ascending, and the SpMM row kernel one per stored entry, index
//     ascending, so every C element sums in the flat oracle's order whatever
//     the tile or strip shape or the traversal around it.
//
// ExpRow is the one entry whose bodies fuse, because its scalar reference
// does: it is math.Exp, and on amd64 with FMA math.Exp runs Shibata's method
// as a fixed chain of fused multiply-adds and one ldexp. The AVX-512 and AVX2
// bodies repeat that chain lane for lane, with the same constants in the same
// order, and send a row with a lane where math.Exp branches (a NaN, ±Inf, an
// overflow, a subnormal or zero result) to the scalar body. They are offered
// only where the CPU has FMA, the bit math.Exp's path is chosen by, and the
// probe holds them to math.Exp itself, so a host whose math.Exp differs
// refuses them and only ExpRow runs its scalar body. The row sum is one
// float64 add per element, j ascending.
//
// The stream's loops (AddU64, FirstOutside63) are integer arithmetic and
// compares, so their contract is plain equality: every body returns exactly
// what the scalar loop returns, and so every generated graph is the same.
//
// Tail elements past the widest vector multiple are always handled by the
// same scalar expressions, or by a lane mask (Tile and SpMMRow on AVX2) or
// opmask registers (Tile and the softmax rows on AVX-512), so odd lengths
// and misaligned slices are safe and bit-identical too.
//
// All slice arguments of one vector-kernel call must have the same length
// (callers slice before calling); the dst length is authoritative. Tile and
// SpMMRow take extents and strides instead, and prove them against their
// slices before the assembly sees a pointer (the AVX2 row body proves its own
// columns). Swapping implementations is not synchronized — dispatch happens in
// init, before any kernel runs.
package kernel

import "math"

// Dispatch table. Scalar until the arch init installs an entry's body.
var (
	// Add computes dst[j] += x[j].
	Add func(x, dst []float32) = addScalar
	// SpMMRow is the SpMM row microkernel. For the strip c of one output
	// row (1..SpMMStrip floats) it starts every accumulator from c (acc) or
	// from 0, adds v(k) * x[cols[k]*xs+j] for k ascending over [0, n) —
	// product and sum each rounded to float32 on amd64, fused as the
	// compiler fuses them on arm64 — and writes c once. x is X from the
	// strip's first column on, xs its row stride and xrows its row count.
	// cols runs from this row's first stored entry to the tile's last, so a
	// body may read cols past n to prefetch the rows the next output rows
	// gather. form says where entry k's value v(k) is read (see ValForm);
	// a nil vals is a value of one in every form (x*1 is exact: a
	// structure-only tile sums its neighbours through this body).
	SpMMRow func(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool) = spmmRowScalar
	// Tile is the GeMM register-tile microkernel. For the rows x cols tile
	// of C at c (row stride cs; rows <= MR, cols <= NR) it starts every
	// accumulator from C (acc) or from 0, adds a[i*ars+p*aks] * b[p*bs+j]
	// for p ascending over [0, k) — product and sum each rounded to
	// float32 on amd64, fused as the compiler fuses them on arm64 — and
	// writes C once. A's two strides are what make A*B (ars = stride,
	// aks = 1) and Aᵀ*B (ars = 1, aks = stride) the same kernel.
	Tile func(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool) = tileScalar
	// ReLU computes dst[j] = src[j] unless src[j] <= 0, then +0: a NaN
	// propagates (the numeric guard downstream must see it), -0 does not.
	// dst may be src.
	ReLU func(dst, src []float32) = reluScalar
	// ReLUMask computes dst[j] = grad[j] where act[j] > 0, else +0. dst may
	// be grad or act.
	ReLUMask func(dst, grad, act []float32) = reluMaskScalar
	// AddU64 computes dst[j] += x[j] mod 2⁶⁴. dst and x may be the same
	// slice but must not otherwise overlap.
	AddU64 func(dst, x []uint64) = addU64Scalar
	// FirstOutside63 returns the first j whose v[j] & (1<<63 − 1) lies
	// outside [lo, hi), or len(v) if there is none. lo ≥ hi makes every
	// value outside.
	FirstOutside63 func(v []uint64, lo, hi uint64) int = firstOutside63Scalar
	// ExpRow sets dst[j] = math.Exp(float64(src[j]-mx)), the difference
	// rounded to float32 first, and returns their sum, added j ascending
	// from 0: one softmax row's exponentials.
	ExpRow func(dst []float64, src []float32, mx float32) float64 = expRowScalar
	// NormRow sets dst[j] = float32(e[j]/sum*scale): a softmax row
	// normalized and scaled (x*1 is exact, so scale 1 is the plain row).
	NormRow func(dst []float32, e []float64, sum, scale float64) = normRowScalar
)

// MR x NR is the C tile one Tile call owns. It is sized for the widest
// body: eight rows of two 16-float ZMM vectors is sixteen accumulators,
// which with two B vectors, a broadcast A element and the products fit the
// thirty-two ZMM registers. Narrower bodies run the tile as 4 x 16 sub-tiles
// (tileSplit), eight YMM or sixteen NEON accumulators each.
const (
	MR = 8
	NR = 32
)

// ValForm is where SpMMRow reads a stored entry's value. The three forms are
// the three ways a tile holds its values: one per entry (a sampled block, an
// attention tile), one per row (Âᵀ under eq. (2): row v of Âᵀ is v's
// in-neighbours, each weighted 1/in-degree(v)) and one per column (Â, whose
// column v carries that same weight).
type ValForm uint8

const (
	PerEntry ValForm = iota // v(k) = vals[k]: vals runs parallel to cols
	RowConst                // v(k) = vals[0]: one value for the whole row
	ByColumn                // v(k) = vals[cols[k]]: one value per row of X
)

// one is what a nil vals stands for, for the assembly bodies to point at.
var one = [1]float32{1}

// SpMMStrip is the widest strip one SpMMRow call owns: eight 8-float vectors
// is the eight accumulators that, with a broadcast value, a masked load and
// the products in flight, fit the sixteen YMM registers.
const SpMMStrip = 64

func addScalar(x, dst []float32) {
	x = x[:len(dst)]
	for j := range dst {
		dst[j] += x[j]
	}
}

// spmmRowScalar is the oracle and the path of builds without assembly: one
// pass over the strip per stored entry, ascending.
func spmmRowScalar(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool) {
	checkSpMMRow(c, x, xs, xrows, cols, vals, form, n)
	if !acc {
		clear(c)
	}
	for k, col := range cols[:n] {
		v := float32(1)
		switch {
		case vals == nil:
		case form == PerEntry:
			v = vals[k]
		case form == RowConst:
			v = vals[0]
		default:
			v = vals[col]
		}
		rx := x[int(col)*xs:][:len(c)]
		for j := range c {
			c[j] += v * rx[j]
		}
	}
}

// checkSpMMRow panics unless checkSpMMExtents holds and each of the row's n
// columns names a row of X: the whole proof the assembly bodies, which index
// raw pointers, run behind. The AVX2 body proves the columns itself.
func checkSpMMRow(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int) {
	checkSpMMExtents(c, x, xs, xrows, cols, vals, form, n)
	bad := 0
	for _, col := range cols[:n] {
		bad |= int(col) | (xrows - 1 - int(col))
	}
	if bad < 0 {
		panic(errSpMMColumn)
	}
}

const errSpMMColumn = "kernel: SpMMRow column outside X's rows"

// checkSpMMExtents is checkSpMMRow's O(1) half: the strip is 1..SpMMStrip
// floats, the strip's furthest element of X's last row is inside x, the
// row's n entries are inside cols, and any vals holds every value its form
// can read — n of them, one, or one per row of X. The columns past n are
// only ever prefetched, which cannot fault.
func checkSpMMExtents(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int) {
	need := [...]int{PerEntry: n, RowConst: 1, ByColumn: xrows}
	if len(c) < 1 || len(c) > SpMMStrip || xs < 0 || xrows < 0 || n < 0 || form > ByColumn || (vals != nil && len(vals) < need[form]) {
		panic("kernel: SpMMRow strip outside 1..SpMMStrip, a negative extent, an unknown value form or vals shorter than it reads")
	}
	if xrows > 0 {
		_ = x[(xrows-1)*xs+len(c)-1]
	}
	_ = cols[:n]
}

// tileScalar is the oracle and the path of builds without assembly. It walks
// the tile in 2 x 2 register blocks over the whole k extent; the row and
// column past the tile's last are clamped onto it, so an edge block
// recomputes and rewrites its last row or column instead of branching.
func tileScalar(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool) {
	checkTile(rows, cols, k, a, ars, aks, b, bs, c, cs)
	if k == 0 {
		for i := 0; i < rows && !acc; i++ {
			clear(c[i*cs : i*cs+cols])
		}
		return
	}
	for i0 := 0; i0 < rows; i0 += 2 {
		i1 := min(i0+1, rows-1)
		a0, a1, c0, c1 := a[i0*ars:], a[i1*ars:], c[i0*cs:], c[i1*cs:]
		for j0 := 0; j0 < cols; j0 += 2 {
			j1 := min(j0+1, cols-1)
			var s00, s01, s10, s11 float32
			if acc {
				s00, s01, s10, s11 = c0[j0], c0[j1], c1[j0], c1[j1]
			}
			c0[j0], c0[j1], c1[j0], c1[j1] = dot2x2(k, a0, a1, aks, b[j0:], b[j1:], bs, s00, s01, s10, s11)
		}
	}
}

// dot2x2 adds k products to each of four sums: two rows of A, strided by
// aks, against two columns of B, strided by bs. Four accumulators, two
// operands and a product each are what the compiler keeps in registers (a
// 4 x 2 block spills); slices of one length indexed by one offset cost one
// bounds check per operand per step.
func dot2x2(k int, a0, a1 []float32, aks int, b0, b1 []float32, bs int, s00, s01, s10, s11 float32) (float32, float32, float32, float32) {
	a0, b0 = a0[:len(a1)], b0[:len(b1)]
	for ao, bo := 0, 0; k > 0; k, ao, bo = k-1, ao+aks, bo+bs {
		x0, x1 := b0[bo], b1[bo]
		y := a0[ao]
		s00 += y * x0
		s01 += y * x1
		y = a1[ao]
		s10 += y * x0
		s11 += y * x1
	}
	return s00, s01, s10, s11
}

// tileSplit runs body, a tile kernel for at most mr x nr, over each mr x nr
// sub-tile of the rows x cols tile. Every C element belongs to exactly one
// sub-tile, and body sums it as the whole tile's contract does, so the split
// changes no bit. It proves the tile for bodies that index raw pointers:
// body sees only sub-tiles of a tile checkTile has passed, and k >= 1.
func tileSplit(mr, nr int, body func(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool),
	rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool) {
	checkTile(rows, cols, k, a, ars, aks, b, bs, c, cs)
	if k == 0 {
		tileScalar(rows, cols, k, a, ars, aks, b, bs, c, cs, acc) // nothing to multiply, and A may be empty
		return
	}
	for j := 0; j < cols; j += nr {
		for i := 0; i < rows; i += mr {
			body(min(mr, rows-i), min(nr, cols-j), k, a[i*ars:], ars, aks, b[j:], bs, c[i*cs+j:], cs, acc)
		}
	}
}

// checkTile panics unless the tile is inside MR x NR and the furthest element
// each operand's strides reach is inside its slice — the proof the assembly
// bodies, which index raw pointers, run behind.
func checkTile(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int) {
	if rows < 1 || rows > MR || cols < 1 || cols > NR || k < 0 || ars < 0 || aks < 0 || bs < 0 || cs < 0 {
		panic("kernel: Tile extent outside 1..MR x 1..NR or a negative stride")
	}
	_ = c[(rows-1)*cs+cols-1]
	if k > 0 {
		_ = a[(rows-1)*ars+(k-1)*aks]
		_ = b[(k-1)*bs+cols-1]
	}
}

// reluScalar and reluMaskScalar select with integer masks, not branches (on
// activations the sign of an element is a coin flip), each from one unsigned
// range test on the float's bits that the NEON bodies repeat lane for lane.
func reluScalar(dst, src []float32) {
	src = src[:len(dst)]
	for j, v := range src {
		u := math.Float32bits(v)
		// !(v <= 0): adding 0x007fffff wraps the -NaNs, [0xff800001,
		// 0xffffffff], round below the positives and +NaNs and leaves -0 and
		// the negatives, [0x80000000, 0xff800000], alone on top. (+0 lands
		// among the kept, and is 0 either way.)
		keep := uint32((int64(u+0x007fffff) - 0x807fffff) >> 63)
		dst[j] = math.Float32frombits(u & keep)
	}
}

func reluMaskScalar(dst, grad, act []float32) {
	grad, act = grad[:len(dst)], act[:len(dst)]
	for j := range dst {
		// act > 0: bits in [1, +Inf's]; bits-1 wraps +0 past every NaN.
		keep := uint32((int64(math.Float32bits(act[j])-1) - 0x7f800000) >> 63)
		dst[j] = math.Float32frombits(math.Float32bits(grad[j]) & keep)
	}
}

func addU64Scalar(dst, x []uint64) {
	x = x[:len(dst)]
	for j := range dst {
		dst[j] += x[j]
	}
}

// firstOutside63Scalar finds a value outside with one unsigned compare:
// v−lo wraps past hi−lo when v < lo. Four at a time, the compares of a group
// do not wait on each other's branches.
func firstOutside63Scalar(v []uint64, lo, hi uint64) int {
	const mask63 = 1<<63 - 1
	span, i := max(hi, lo)-lo, 0
	for ; i+4 <= len(v); i += 4 {
		if r := v[i : i+4 : i+4]; r[0]&mask63-lo >= span || r[1]&mask63-lo >= span || r[2]&mask63-lo >= span || r[3]&mask63-lo >= span {
			break
		}
	}
	for i < len(v) && v[i]&mask63-lo < span {
		i++
	}
	return i
}

// expRowScalar is the oracle and the path of builds without assembly and of
// CPUs without FMA.
func expRowScalar(dst []float64, src []float32, mx float32) float64 {
	return expRowFrom(0, dst, src, mx)
}

// expRowFrom is expRowScalar continuing a sum, the tail of a body that ran
// the row's first elements.
func expRowFrom(sum float64, dst []float64, src []float32, mx float32) float64 {
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] = math.Exp(float64(v - mx))
		sum += dst[j]
	}
	return sum
}

func normRowScalar(dst []float32, e []float64, sum, scale float64) {
	e = e[:len(dst)]
	for j, v := range e {
		dst[j] = float32(v / sum * scale)
	}
}
