package kernel

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// impls bundles one complete candidate implementation of the dispatch
// table so an arch init can hand it to verifyAndInstall as a unit.
type impls struct {
	name     string
	add      func(x, dst []float32)
	tile     func(rows, cols, k int, a []float32, ars, aks int, b []float32, bs int, c []float32, cs int, acc bool)
	spmmRow  func(c, x []float32, xs, xrows int, cols []int32, vals []float32, form ValForm, n int, acc bool)
	relu     func(dst, src []float32)
	reluMask func(dst, grad, act []float32)

	addU64         func(dst, x []uint64)
	firstOutside63 func(v []uint64, lo, hi uint64) int

	expRow  func(dst []float64, src []float32, mx float32) float64
	normRow func(dst []float32, e []float64, sum, scale float64)
}

// ProbeErr is why the arch init's candidates were refused, each naming the
// first entry and shape that deviated: nil when its first choice was
// installed or none was offered.
func ProbeErr() error { return probeErr }

var probeErr error

// verifyAndInstall checks each candidate implementation, best first, against
// the scalar kernels on deterministic rounding-sensitive vectors and installs
// the first whose every output is bit-identical. A candidate that fails any
// probe is discarded — and the table stays scalar if every one does — the
// guard that lets us ship assembly for platforms the build host cannot
// execute: a wrong kernel (e.g. an unexpected fused multiply-add) degrades to
// a slower path instead of corrupting training. It runs from init, before
// any kernel call, so swapping the table is unsynchronized by design. A
// candidate that panics in a probe is refused like one that deviates.
func verifyAndInstall(cands ...impls) {
	var refused []error
	for _, c := range cands {
		if err := probe(c); err != nil {
			refused = append(refused, err)
			continue
		}
		impl = c.name
		Add = c.add
		Tile = c.tile
		SpMMRow = c.spmmRow
		ReLU = c.relu
		ReLUMask = c.reluMask
		AddU64 = c.addU64
		FirstOutside63 = c.firstOutside63
		ExpRow = c.expRow
		NormRow = c.normRow
		break
	}
	probeErr = errors.Join(refused...)
}

// probe is verifyImpls with a panic turned into c's refusal, so a body that
// crashes on some probe shape cannot stop every process at start-up.
func probe(c impls) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel: %s panics in its probe: %v", c.name, r)
		}
	}()
	return verifyImpls(c)
}

// verifyLens covers empty, sub-lane, exact-lane, and straddling lengths
// for every vector width in use (4 and 8), plus a long run.
var verifyLens = [...]int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100}

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
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		v[i] = s
		if lo < hi {
			v[i] = lo + s%(hi-lo) | s&(1<<63)
		}
	}
}

// verifyImpls returns nil if c matches the scalar kernels bit for bit on
// every probe, else an error naming the first entry and shape that deviated.
func verifyImpls(c impls) error {
	// Strides past every extent the tile probes reach, so a lane that
	// strays lands on data the comparison sees.
	const lda, ldb, ldc, maxK = 41, NR + 3, NR + 5, 7
	// Rounding-sensitive probe data: xorshift-derived floats with full
	// mantissas, spanning magnitudes and signs, so a single-rounding FMA
	// where the scalar path double-rounds cannot slip through.
	mk := func(seed uint64) []float32 {
		v := make([]float32, max(MR, maxK)*lda)
		s := seed
		for i := range v {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			v[i] = float32(int32(s)) / (1 << 28)
		}
		return v
	}
	xa, xb, xd := mk(0x9e3779b97f4a7c15), mk(0xbf58476d1ce4e5b9), mk(0x2545f4914f6cdd1d)
	// The values a select-by-sign kernel can get wrong, every third
	// element so each lands in every vector lane: NaN and -NaN, both
	// zeros, both infinities, the smallest denormals.
	nan := float32(math.NaN())
	specials := [...]float32{nan, -nan, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}
	xs, xt := mk(0x94d049bb133111eb), mk(0xd6e8feb86659fd93)
	for i := 0; i+1 < len(xs); i += 3 {
		xs[i], xt[i+1] = specials[i/3%len(specials)], specials[(i/3+3)%len(specials)]
	}
	eq := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	// Every probe's output and reference, in two buffers reused throughout.
	gotBuf, wantBuf := make([]float32, 0, len(xd)), make([]float32, 0, len(xd))
	buf := func(src []float32, n int) (got, want []float32) {
		return append(gotBuf[:0], src[:n]...), append(wantBuf[:0], src[:n]...)
	}

	vector := [...]struct {
		entry     string
		dst       []float32 // dst's prior contents
		cand, ref func(n int, dst []float32)
	}{
		{"Add", xd, func(n int, d []float32) { c.add(xa[:n], d) }, func(n int, d []float32) { addScalar(xa[:n], d) }},
		{"ReLU", xd, func(n int, d []float32) { c.relu(d, xs[:n]) }, func(n int, d []float32) { reluScalar(d, xs[:n]) }},
		{"ReLU(dst = src)", xs, func(n int, d []float32) { c.relu(d, d) }, func(n int, d []float32) { reluScalar(d, d) }},
		{"ReLUMask", xd, func(n int, d []float32) { c.reluMask(d, xs[:n], xt[:n]) }, func(n int, d []float32) { reluMaskScalar(d, xs[:n], xt[:n]) }},
		{"ReLUMask(dst = grad)", xs, func(n int, d []float32) { c.reluMask(d, d, xt[:n]) }, func(n int, d []float32) { reluMaskScalar(d, d, xt[:n]) }},
		{"ReLUMask(dst = act)", xt, func(n int, d []float32) { c.reluMask(d, xs[:n], d) }, func(n int, d []float32) { reluMaskScalar(d, xs[:n], d) }},
	}
	for _, n := range verifyLens {
		for _, p := range vector {
			got, want := buf(p.dst, n)
			p.cand(n, got)
			p.ref(n, want)
			if !eq(got, want) {
				return fmt.Errorf("kernel: %s %s deviates from scalar at length %d", c.name, p.entry, n)
			}
		}
	}

	// The stream's loops: sums that wrap (the words are uniform over 2⁶⁴), and
	// scans with each edge value planted at every position of runs on both
	// sides of every vector boundary (lo and hi−1 are inside: the runs with
	// one of them planted have none outside).
	xu, yu := make([]uint64, 100), make([]uint64, 100)
	insideRun(xu, 0, 0, 0x9e3779b97f4a7c15)
	insideRun(yu, 0, 0, 0xbf58476d1ce4e5b9)
	for _, n := range verifyLens {
		got, want := append([]uint64(nil), xu[:n]...), append([]uint64(nil), xu[:n]...)
		c.addU64(got, yu[:n])
		addU64Scalar(want, yu[:n])
		if !slices.Equal(got, want) {
			return fmt.Errorf("kernel: %s AddU64 deviates from scalar at length %d", c.name, n)
		}
	}
	for _, lo := range scanLos {
		run := make([]uint64, 100)
		insideRun(run, lo, streamRedraw, 0x2545f4914f6cdd1d^lo)
		for _, n := range verifyLens {
			v := run[:n]
			for p := range v {
				keep := v[p]
				for _, e := range scanEdges(lo, streamRedraw) {
					v[p] = e
					if got, want := c.firstOutside63(v, lo, streamRedraw), firstOutside63Scalar(v, lo, streamRedraw); got != want {
						return fmt.Errorf("kernel: %s FirstOutside63 returns %d, scalar %d, at length %d lo=%#x with %#x at %d", c.name, got, want, n, lo, e, p)
					}
				}
				v[p] = keep
			}
		}
	}

	if err := verifyRows(c); err != nil {
		return err
	}

	// Every row count, widths on both sides of each 8- and 16-lane vector
	// boundary and the full NR, both orientations of A's strides, both
	// accumulate modes, k empty, single, even and odd; C sits inside a guard
	// band the comparison covers. Each C element sums only its own products,
	// so every smaller tile is a window of the scalar body's full one.
	// (TestTileMatchesDefinition sweeps every extent.)
	tileWidths := [...]int{1, 7, 8, 9, 15, 16, 17, 24, 25, 31, NR}
	for _, k := range [...]int{0, 1, 2, maxK} {
		for t := 0; t < 4; t++ {
			ars, aks, acc := lda, 1, t&1 == 1
			if t&2 == 2 {
				ars, aks = 1, lda
			}
			full := append([]float32(nil), xd[:5+MR*ldc]...)
			tileScalar(MR, NR, k, xa, ars, aks, xb, ldb, full[5:], ldc, acc)
			for rows := 1; rows <= MR; rows++ {
				for _, cols := range tileWidths {
					got, want := buf(xd, 5+MR*ldc)
					for i := 0; i < rows; i++ {
						copy(want[5+i*ldc:][:cols], full[5+i*ldc:])
					}
					c.tile(rows, cols, k, xa, ars, aks, xb, ldb, got[5:], ldc, acc)
					if !eq(got, want) {
						return fmt.Errorf("kernel: %s Tile deviates from scalar at rows=%d cols=%d k=%d strides=(%d,%d) acc=%v",
							c.name, rows, cols, k, ars, aks, acc)
					}
				}
			}
		}
	}

	// Row-kernel strips on both sides of every vector boundary; empty, single,
	// paired, odd and hub rows (longer than any look-ahead); ones and each
	// value form, the row's and the column's values taken from the middle of
	// a longer stream so a body that reads them as another form deviates;
	// from C and from 0 (over a C that holds a NaN); the row first in its
	// tile and last in it, where the look-ahead has nothing past the row to
	// read. X's stride is past the strip and the band between holds NaNs,
	// and C sits inside a guard band the comparison covers.
	const ldx, xrows = SpMMStrip + 3, 4
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
		xp := append([]float32(nil), xa[:xrows*ldx]...)
		for i := range xp {
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
			got, want := buf(xd, 5+w+5)
			if !acc {
				got[5+w/2], want[5+w/2] = nan, nan
			}
			c.spmmRow(got[5:5+w], xp, ldx, xrows, cols, vals, f.form, n, acc)
			spmmRowScalar(want[5:5+w], xp, ldx, xrows, cols, vals, f.form, n, acc)
			if !eq(got, want) {
				return fmt.Errorf("kernel: %s SpMMRow deviates from scalar at width=%d nnz=%d acc=%v values=%s last row=%v",
					c.name, w, n, acc, f.name, lastRow)
			}
		}
	}

	// The row kernel's column proof: a column just outside X (-1, or one past
	// its last row) first, in the middle or last in the row must panic with
	// C and its guard band untouched, in the stream forms and in ByColumn,
	// whose value the column indexes. X starts a row into its buffer and the
	// slice holds one row more than xrows says, and the column values sit
	// inside a longer stream, so a candidate that skips the check reads
	// memory it owns and is refused here instead of faulting.
	xw := make([]float32, (xrows+2)*ldx)[ldx:]
	for t := 0; t < 48; t++ {
		w, acc, at, col := []int{3, SpMMStrip}[t&1], t&2 == 2, []int{0, 2, 4}[t/4%3], []int32{-1, xrows}[t/12%2]
		f := forms[[]int{0, 3}[t/24]]
		cols := append([]int32(nil), tileCols[:5]...)
		cols[at] = col
		got, want := buf(xd, 5+w+5)
		if !panics(func() { c.spmmRow(got[5:5+w], xw, ldx, xrows, cols, f.vals, f.form, len(cols), acc) }) {
			return fmt.Errorf("kernel: %s SpMMRow accepts column %d of a %d-row X at entry %d (values=%s)", c.name, col, xrows, at, f.name)
		}
		if !eq(got, want) {
			return fmt.Errorf("kernel: %s SpMMRow writes C while rejecting column %d at entry %d (width=%d acc=%v values=%s)", c.name, col, at, w, acc, f.name)
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

// verifyRows holds ExpRow to math.Exp and NormRow to its scalar body on rows
// of every verifyLens width and the loss's 47, dst inside a guard band the
// comparison covers. ExpRow's rows are inputs in [-700, 20] at two row
// maxima, which the vector bodies run whole, the same with each special
// planted at one position, and a row across [-760, -700], the subnormal
// band, which a body must send to math.Exp.
func verifyRows(c impls) error {
	const guard = 3
	src := make([]float32, verifyLens[len(verifyLens)-1]+47)
	band := make([]float32, len(src))
	s := uint64(0x9e3779b97f4a7c15)
	for i := range src {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		src[i] = float32(s>>11)/(1<<53)*720 - 700
		band[i] = -760 + 60*float32(i)/float32(len(src)) + src[i]/1e4
	}
	got, want := make([]float64, len(src)+2*guard), make([]float64, len(src)+2*guard)
	rowOK := func(n int, v []float32, mx float32) bool {
		for i := range got {
			got[i], want[i] = float64(i)+0.5, float64(i)+0.5
		}
		sum, ref := c.expRow(got[guard:guard+n], v[:n], mx), 0.0
		for j, x := range v[:n] {
			want[guard+j] = math.Exp(float64(x - mx))
			ref += want[guard+j]
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return math.Float64bits(sum) == math.Float64bits(ref)
	}
	lens := append(verifyLens[:len(verifyLens):len(verifyLens)], 47)
	for _, n := range lens {
		for _, mx := range [...]float32{0, -1.3} {
			if !rowOK(n, src, mx) {
				return fmt.Errorf("kernel: %s ExpRow deviates from math.Exp at length %d inside the normal range, max %v", c.name, n, mx)
			}
		}
		if !rowOK(n, band, 0) {
			return fmt.Errorf("kernel: %s ExpRow deviates from math.Exp at length %d across the subnormal band", c.name, n)
		}
		for i := 0; n > 0 && i < len(expSpecials); i++ {
			x, p := expSpecials[i], (i*7+n/2)%n
			keep := src[p]
			src[p] = x
			ok := rowOK(n, src, 0)
			src[p] = keep
			if !ok {
				return fmt.Errorf("kernel: %s ExpRow deviates from math.Exp at length %d with %v at %d", c.name, n, x, p)
			}
		}
	}

	e := make([]float64, len(src))
	sum := expRowScalar(e, src, 0)
	for i, x := range expSpecials {
		e[i*13%len(e)] = math.Exp(float64(x))
	}
	g, w := make([]float32, len(src)+2*guard), make([]float32, len(src)+2*guard)
	for _, n := range lens {
		for _, sc := range [...][2]float64{{sum, 1}, {sum, 1.0 / 123}, {3e-310, 0.7}, {0, 1}} {
			for i := range g {
				g[i], w[i] = float32(i)+0.5, float32(i)+0.5
			}
			c.normRow(g[guard:guard+n], e[:n], sc[0], sc[1])
			normRowScalar(w[guard:guard+n], e[:n], sc[0], sc[1])
			for i := range w {
				if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
					return fmt.Errorf("kernel: %s NormRow deviates from scalar at length %d sum=%v scale=%v", c.name, n, sc[0], sc[1])
				}
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
