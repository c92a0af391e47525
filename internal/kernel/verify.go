package kernel

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// A body is one implementation offered for a dispatch entry, named for the
// instruction set it runs on.
type body[F any] struct {
	name string
	fn   F
}

// offer is fn as a body if the CPU and OS have what its instructions need
// (ok), else no body: an architecture lists an entry's bodies, best first,
// as the concatenation of its offers.
func offer[F any](ok bool, name string, fn F) []body[F] {
	if !ok {
		return nil
	}
	return []body[F]{{name, fn}}
}

// impl is the body the Tile entry runs; refused is every body the arch init
// passed over, each naming the entry and the shape that deviated; fallbacks
// names each entry that refused one, with the body it runs instead.
var (
	impl      = "scalar"
	refused   []error
	fallbacks []string
)

// Impl names the body the Tile entry, the GeMM's microkernel, runs
// ("scalar", "avx2", "avx512" or "neon"), then each entry that refused a
// body and the body it runs instead: "avx512 (ExpRow scalar)".
func Impl() string {
	if len(fallbacks) == 0 {
		return impl
	}
	return impl + " (" + strings.Join(fallbacks, ", ") + ")"
}

// ProbeErr is why the arch init refused bodies: nil when every entry
// installed the first body it was offered, or none was offered.
func ProbeErr() error { return errors.Join(refused...) }

// install checks the bodies offered for one entry, best first, against the
// entry's scalar kernel on deterministic rounding-sensitive data (probe) and
// sets *fn to the first whose every output is bit-identical, returning its
// name; the entry keeps its scalar body, "scalar", if none passes. A body
// that deviates or panics in the probe is refused, recorded in ProbeErr and
// in Impl's list of fallbacks, and takes no other entry with it. That is the
// guard that lets us ship assembly for platforms the build host cannot
// execute: a wrong kernel (e.g. an unexpected fused multiply-add) degrades
// to a slower path instead of corrupting training. It runs from init,
// before any kernel call, so swapping the table is unsynchronized by design.
func install[F any](entry string, fn *F, probe func(F) error, bodies []body[F]) string {
	name := "scalar"
	for _, b := range bodies {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panics in its probe: %v", r)
				}
			}()
			return probe(b.fn)
		}()
		if err == nil {
			*fn, name = b.fn, b.name
			break
		}
		refused = append(refused, fmt.Errorf("kernel: %s %s %w", b.name, entry, err))
	}
	if len(bodies) > 0 && name != bodies[0].name {
		fallbacks = append(fallbacks, entry+" "+name)
	}
	return name
}

// verifyLens covers empty, sub-lane, exact-lane, and straddling lengths
// for every vector width in use (4 and 8), plus a long run.
var verifyLens = [...]int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100}

const maxLen = 100 // verifyLens' last

func xorshift(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	return s ^ s<<17
}

// probeFloats is rounding-sensitive probe data: xorshift-derived floats with
// full mantissas in [-8, 8), spanning magnitudes and signs, so a
// single-rounding FMA where the scalar path double-rounds cannot slip
// through.
func probeFloats(n int, seed uint64) []float32 {
	v := make([]float32, n)
	for i := range v {
		seed = xorshift(seed)
		v[i] = float32(int32(seed)) / (1 << 28)
	}
	return v
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// signSpecials is probe data with the values a select-by-sign kernel can get
// wrong, every third element from at so each lands in every vector lane: NaN
// and -NaN, both zeros, both infinities, the smallest denormals.
func signSpecials(seed uint64, at int) []float32 {
	nan := float32(math.NaN())
	specials := [...]float32{nan, -nan, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}
	v := probeFloats(maxLen, seed)
	for i := 0; i+at < len(v); i += 3 {
		v[i+at] = specials[(i/3+3*at)%len(specials)]
	}
	return v
}

// probeRows holds an elementwise body (cand) to its scalar kernel (ref) at
// every probe length, each writing over a copy of dst's first n elements, and
// same compares what they wrote.
func probeRows[T any](what string, dst []T, same func(a, b []T) bool, cand, ref func(n int, d []T)) error {
	got, want := make([]T, maxLen), make([]T, maxLen)
	for _, n := range verifyLens {
		copy(got, dst[:n])
		copy(want, dst[:n])
		cand(n, got[:n])
		ref(n, want[:n])
		if !same(got[:n], want[:n]) {
			return fmt.Errorf("deviates from scalar at length %d%s", n, what)
		}
	}
	return nil
}

func probeAdd(add func(x, dst []float32)) error {
	xd, xa := probeFloats(maxLen, 0x2545f4914f6cdd1d), probeFloats(maxLen, 0x9e3779b97f4a7c15)
	return probeRows("", xd, sameBits, func(n int, d []float32) { add(xa[:n], d) }, func(n int, d []float32) { addScalar(xa[:n], d) })
}

func probeReLU(relu func(dst, src []float32)) error {
	xd, xs := probeFloats(maxLen, 0x2545f4914f6cdd1d), signSpecials(0x94d049bb133111eb, 0)
	return cmp.Or(
		probeRows("", xd, sameBits, func(n int, d []float32) { relu(d, xs[:n]) }, func(n int, d []float32) { reluScalar(d, xs[:n]) }),
		probeRows(" with dst = src", xs, sameBits, func(n int, d []float32) { relu(d, d) }, func(n int, d []float32) { reluScalar(d, d) }))
}

func probeReLUMask(mask func(dst, grad, act []float32)) error {
	xd, xs, xt := probeFloats(maxLen, 0x2545f4914f6cdd1d), signSpecials(0x94d049bb133111eb, 0), signSpecials(0xd6e8feb86659fd93, 1)
	return cmp.Or(
		probeRows("", xd, sameBits, func(n int, d []float32) { mask(d, xs[:n], xt[:n]) }, func(n int, d []float32) { reluMaskScalar(d, xs[:n], xt[:n]) }),
		probeRows(" with dst = grad", xs, sameBits, func(n int, d []float32) { mask(d, d, xt[:n]) }, func(n int, d []float32) { reluMaskScalar(d, d, xt[:n]) }),
		probeRows(" with dst = act", xt, sameBits, func(n int, d []float32) { mask(d, xs[:n], d) }, func(n int, d []float32) { reluMaskScalar(d, xs[:n], d) }))
}

// streamRedraw is the graph generator's redraw bound, the hi of its scans: a
// masked value at or above it is a float64 of 1, which the stream draws again.
const streamRedraw = 1<<63 - 512

// scanLos are the lows the FirstOutside63 probes pair with hi = streamRedraw:
// both ends of the masked range, the threshold of a Bernoulli(1e-5) draw, and
// the two next to hi (at lo = hi every value is outside).
var scanLos = [...]uint64{0, 1, 92233720368548, streamRedraw - 1, streamRedraw}

// scanEdges are the values next to a scan's bounds, lo−1, lo, hi−1 and hi,
// each with bit 63 clear and set: a body that compares unmasked values, or
// is off by one at either bound, answers differently on one of them.
func scanEdges(lo, hi uint64) [8]uint64 {
	var e [8]uint64
	for i, b := range [...]uint64{lo - 1, lo, hi - 1, hi} {
		e[2*i], e[2*i+1] = b&(1<<63-1), b|1<<63
	}
	return e
}

// insideRun fills v with values inside [lo, hi) once masked, bit 63 random,
// from a xorshift state; with lo ≥ hi there are none, and any value will do.
func insideRun(v []uint64, lo, hi, s uint64) {
	for i := range v {
		s = xorshift(s)
		v[i] = s
		if lo < hi {
			v[i] = lo + s%(hi-lo) | s&(1<<63)
		}
	}
}

// probeAddU64 holds the stream's refill to its scalar loop on sums that wrap
// (the words are uniform over 2⁶⁴).
func probeAddU64(add func(dst, x []uint64)) error {
	xu, yu := make([]uint64, maxLen), make([]uint64, maxLen)
	insideRun(xu, 0, 0, 0x9e3779b97f4a7c15)
	insideRun(yu, 0, 0, 0xbf58476d1ce4e5b9)
	return probeRows("", xu, slices.Equal, func(n int, d []uint64) { add(d, yu[:n]) }, func(n int, d []uint64) { addU64Scalar(d, yu[:n]) })
}

// probeFirstOutside63 holds the stream's scan to its scalar loop with each
// edge value planted at every position of runs on both sides of every vector
// boundary (lo and hi−1 are inside: the runs with one of them planted have
// none outside).
func probeFirstOutside63(scan func(v []uint64, lo, hi uint64) int) error {
	run := make([]uint64, maxLen)
	for _, lo := range scanLos {
		insideRun(run, lo, streamRedraw, 0x2545f4914f6cdd1d^lo)
		for _, n := range verifyLens {
			v := run[:n]
			for p := range v {
				keep := v[p]
				for _, e := range scanEdges(lo, streamRedraw) {
					v[p] = e
					if got, want := scan(v, lo, streamRedraw), firstOutside63Scalar(v, lo, streamRedraw); got != want {
						return fmt.Errorf("returns %d, scalar %d, at length %d lo=%#x with %#x at %d", got, want, n, lo, e, p)
					}
				}
				v[p] = keep
			}
		}
	}
	return nil
}

// probeTile checks every row count, widths on both sides of each 8- and
// 16-lane vector boundary and the full NR, both orientations of A's strides,
// both accumulate modes, k empty, single, even and odd; C sits inside a guard
// band the comparison covers, and the strides reach past every extent, so a
// lane that strays lands on data the comparison sees. Each C element sums
// only its own products, so every smaller tile is a window of the scalar
// body's full one. (TestTileMatchesDefinition sweeps every extent.)
func probeTile(tile func(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool)) error {
	const lda, ldb, ldc, maxK = 41, NR + 3, NR + 5, 7
	xa, xb, xd := probeFloats(MR*lda, 0x9e3779b97f4a7c15), probeFloats(MR*lda, 0xbf58476d1ce4e5b9), probeFloats(5+MR*ldc+5, 0x2545f4914f6cdd1d)
	got, want, full := make([]float32, len(xd)), make([]float32, len(xd)), make([]float32, len(xd))
	tileWidths := [...]int{1, 7, 8, 9, 15, 16, 17, 24, 25, 31, NR}
	for _, k := range [...]int{0, 1, 2, maxK} {
		for t := 0; t < 4; t++ {
			ars, aks, acc := lda, 1, t&1 == 1
			if t&2 == 2 {
				ars, aks = 1, lda
			}
			copy(full, xd)
			tileScalar(MR, NR, k, xa, ars, aks, xb, ldb, full[5:], ldc, acc)
			for rows := 1; rows <= MR; rows++ {
				for _, cols := range tileWidths {
					copy(got, xd)
					copy(want, xd)
					for i := 0; i < rows; i++ {
						copy(want[5+i*ldc:][:cols], full[5+i*ldc:])
					}
					tile(rows, cols, k, xa, ars, aks, xb, ldb, got[5:], ldc, acc)
					if !sameBits(got, want) {
						return fmt.Errorf("deviates from scalar at rows=%d cols=%d k=%d strides=(%d,%d) acc=%v", rows, cols, k, ars, aks, acc)
					}
				}
			}
		}
	}
	return nil
}

// probeSpMMRow checks strips on both sides of every vector boundary; empty,
// single, paired, odd and hub rows (longer than any look-ahead); ones and
// each value form, the row's and the column's values taken from the middle of
// a longer stream so a body that reads them as another form deviates; from C
// and from 0 (over a C that holds a NaN); the row first in its tile and last
// in it, where the look-ahead has nothing past the row to read. X's stride is
// past the strip and the band between holds NaNs, and C sits inside a guard
// band the comparison covers.
func probeSpMMRow(row func(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool)) error {
	const ldx, xrows = SpMMStrip + 3, 4
	nan := float32(math.NaN())
	xa, xb, xd := probeFloats(xrows*ldx, 0x9e3779b97f4a7c15), probeFloats(64, 0xbf58476d1ce4e5b9), probeFloats(5+SpMMStrip+5, 0x2545f4914f6cdd1d)
	got, want, xp := make([]float32, len(xd)), make([]float32, len(xd)), make([]float32, len(xa))
	tileCols := make([]int32, 40)
	for i := range tileCols {
		tileCols[i] = int32((i*7 + i/4) % xrows)
	}
	nnzs := [...]int{0, 1, 2, 5, 21}
	forms := [...]struct {
		name string
		form ValForm
		vals []float32
	}{
		{"ones", PerEntry, nil},
		{"PerEntry", PerEntry, xb[:len(tileCols)]},
		{"RowConst", RowConst, xb[3:4]},
		{"ByColumn", ByColumn, xb[9 : 9+xrows]},
	}
	for w := 1; w <= SpMMStrip; w++ {
		if r := w % 8; w > 2 && r > 1 && r < 7 {
			continue
		}
		for i, v := range xa {
			xp[i] = v
			if i%ldx >= w {
				xp[i] = nan
			}
		}
		for t := 0; t < len(nnzs)*4*len(forms); t++ {
			n, acc, lastRow, f := nnzs[t%len(nnzs)], t/len(nnzs)&1 == 1, t/len(nnzs)&2 == 2, forms[t/len(nnzs)/4]
			cols, vals := tileCols, f.vals
			if lastRow {
				cols = cols[len(cols)-n:]
				if f.form == PerEntry && vals != nil {
					vals = vals[len(vals)-n:]
				}
			}
			g, e := got[:5+w+5], want[:5+w+5]
			copy(g, xd)
			copy(e, xd)
			if !acc {
				g[5+w/2], e[5+w/2] = nan, nan
			}
			row(g[5:5+w], xp, ldx, xrows, cols, vals, f.form, n, acc)
			spmmRowScalar(e[5:5+w], xp, ldx, xrows, cols, vals, f.form, n, acc)
			if !sameBits(g, e) {
				return fmt.Errorf("deviates from scalar at width=%d nnz=%d acc=%v values=%s last row=%v", w, n, acc, f.name, lastRow)
			}
		}
	}

	// The column proof: a column just outside X (-1, or one past its last
	// row) first, in the middle or last in the row must panic with C and its
	// guard band untouched, in the stream forms and in ByColumn, whose value
	// the column indexes. X starts a row into its buffer and the slice holds
	// one row more than xrows says, and the column values sit inside a longer
	// stream, so a body that skips the check reads memory it owns and is
	// refused here instead of faulting.
	xw := make([]float32, (xrows+2)*ldx)[ldx:]
	for t := 0; t < 48; t++ {
		w, acc, at, col := []int{3, SpMMStrip}[t&1], t&2 == 2, []int{0, 2, 4}[t/4%3], []int32{-1, xrows}[t/12%2]
		f := forms[[]int{0, 3}[t/24]]
		cols := append([]int32(nil), tileCols[:5]...)
		cols[at] = col
		g := got[:5+w+5]
		copy(g, xd)
		if !panics(func() { row(g[5:5+w], xw, ldx, xrows, cols, f.vals, f.form, len(cols), acc) }) {
			return fmt.Errorf("accepts column %d of a %d-row X at entry %d (values=%s)", col, xrows, at, f.name)
		}
		if !sameBits(g, xd[:len(g)]) {
			return fmt.Errorf("writes C while rejecting column %d at entry %d (width=%d acc=%v values=%s)", col, at, w, acc, f.name)
		}
	}
	return nil
}

// expSpecials are the inputs where math.Exp branches or its vector mirror
// leaves the normal range: NaN, ±Inf, ±0, an overflow, and the subnormal
// band's edges — -708.5 is the last exponent the bodies scale themselves,
// -709 the first math.Exp scales in two steps, -745.1 its smallest nonzero
// result and -746 a zero.
var expSpecials = [...]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
	709.9, -708.5, -709, -745.1, -746, -760}

// expProbeRow is the probes' softmax row input: values in [-700, 20], long
// enough for every verifyLens width and the loss's 47.
func expProbeRow() []float32 {
	src := make([]float32, maxLen+47)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range src {
		s = xorshift(s)
		src[i] = float32(s>>11)/(1<<53)*720 - 700
	}
	return src
}

// probeExpRow holds ExpRow to math.Exp on rows of every verifyLens width and
// the loss's 47, dst inside a guard band the comparison covers: inputs in
// [-700, 20] at two row maxima, which the vector bodies run whole, the same
// with each special planted at one position, and a row across [-760, -700],
// the subnormal band, which a body must send to math.Exp.
func probeExpRow(expRow func(dst []float64, src []float32, mx float32) float64) error {
	const guard = 3
	src := expProbeRow()
	band := make([]float32, len(src))
	for i := range band {
		band[i] = -760 + 60*float32(i)/float32(len(src)) + src[i]/1e4
	}
	got, want := make([]float64, len(src)+2*guard), make([]float64, len(src)+2*guard)
	rowOK := func(n int, v []float32, mx float32) bool {
		for i := range got {
			got[i], want[i] = float64(i)+0.5, float64(i)+0.5
		}
		sum, ref := expRow(got[guard:guard+n], v[:n], mx), 0.0
		for j, x := range v[:n] {
			want[guard+j] = math.Exp(float64(x - mx))
			ref += want[guard+j]
		}
		return math.Float64bits(sum) == math.Float64bits(ref) &&
			slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for _, n := range append(verifyLens[:], 47) {
		for _, mx := range [...]float32{0, -1.3} {
			if !rowOK(n, src, mx) {
				return fmt.Errorf("deviates from math.Exp at length %d inside the normal range, max %v", n, mx)
			}
		}
		if !rowOK(n, band, 0) {
			return fmt.Errorf("deviates from math.Exp at length %d across the subnormal band", n)
		}
		for i := 0; n > 0 && i < len(expSpecials); i++ {
			x, p := expSpecials[i], (i*7+n/2)%n
			keep := src[p]
			src[p] = x
			ok := rowOK(n, src, 0)
			src[p] = keep
			if !ok {
				return fmt.Errorf("deviates from math.Exp at length %d with %v at %d", n, x, p)
			}
		}
	}
	return nil
}

// probeNormRow holds NormRow to its scalar body on rows of every verifyLens
// width and 47 with each of expSpecials' exponentials planted, at sums and
// scales down to a subnormal and zero, dst inside a guard band the
// comparison covers.
func probeNormRow(normRow func(dst []float32, e []float64, sum, scale float64)) error {
	const guard = 3
	src := expProbeRow()
	e := make([]float64, len(src))
	sum := expRowScalar(e, src, 0)
	for i, x := range expSpecials {
		e[i*13%len(e)] = math.Exp(float64(x))
	}
	g, w := make([]float32, len(src)+2*guard), make([]float32, len(src)+2*guard)
	for _, n := range append(verifyLens[:], 47) {
		for _, sc := range [...][2]float64{{sum, 1}, {sum, 1.0 / 123}, {3e-310, 0.7}, {0, 1}} {
			for i := range g {
				g[i], w[i] = float32(i)+0.5, float32(i)+0.5
			}
			normRow(g[guard:guard+n], e[:n], sc[0], sc[1])
			normRowScalar(w[guard:guard+n], e[:n], sc[0], sc[1])
			if !sameBits(g, w) {
				return fmt.Errorf("deviates from scalar at length %d sum=%v scale=%v", n, sc[0], sc[1])
			}
		}
	}
	return nil
}

func panics(call func()) (p bool) {
	defer func() { p = recover() != nil }()
	call()
	return false
}
