package kernel

import (
	"fmt"
	"slices"
	"testing"
)

// streamBuf is a buffer the size of the generator's stream state, which its
// scans slice at any position and its sums in three runs.
const streamBuf = 607

// checkScan requires the dispatched FirstOutside63 to return what the scalar
// loop does on v, the run at off whose value at p (if any) was planted.
func checkScan(t *testing.T, v []uint64, lo, hi uint64, off, p int) {
	t.Helper()
	if got, want := FirstOutside63(v, lo, hi), firstOutside63Scalar(v, lo, hi); got != want {
		planted := "none planted"
		if p >= 0 {
			planted = fmt.Sprintf("%#x planted at %d", v[p], p)
		}
		t.Fatalf("off=%d n=%d, %s, lo=%#x hi=%#x: FirstOutside63 returns %d, scalar %d under impl %q", off, len(v), planted, lo, hi, got, want, Impl())
	}
}

// TestFirstOutside63MatchesScalar: the dispatched scan and the scalar loop
// agree on runs of 0–70 values at every start offset 0–7 of a stream-sized
// buffer (every lane position and every tail length), with each value next
// to a bound (lo−1, lo, hi−1, hi, bit 63 clear and set) planted at every
// position, and with none, at the lows the probe runs against the stream's
// redraw bound and at bounds outside the stream's use: lo above hi, and
// either bound at or past 2⁶³, where no masked value reaches.
func TestFirstOutside63MatchesScalar(t *testing.T) {
	bounds := [][2]uint64{{1 << 62, 3}, {0, 1 << 63}, {5, 1<<64 - 1}, {1 << 63, 1<<63 + 9}, {1<<63 - 1, 1 << 63}}
	for _, lo := range scanLos {
		bounds = append(bounds, [2]uint64{lo, streamRedraw})
	}
	buf := make([]uint64, streamBuf)
	for _, b := range bounds {
		lo, hi := b[0], b[1]
		insideRun(buf, lo, hi, lo^hi|1)
		for off := 0; off < 8; off++ {
			for n := 0; n <= 70; n++ {
				v := buf[off : off+n]
				checkScan(t, v, lo, hi, off, -1)
				for p := range v {
					keep := v[p]
					for _, e := range scanEdges(lo, hi) {
						v[p] = e
						checkScan(t, v, lo, hi, off, p)
					}
					v[p] = keep
				}
			}
		}
	}
}

// TestFirstOutside63Definition holds the scalar loop, which the dispatched
// scan is held to, to the entry's own words, on each edge value at each of
// four positions among values inside, at the lows and highs of both tests.
func TestFirstOutside63Definition(t *testing.T) {
	def := func(v []uint64, lo, hi uint64) int {
		for j, x := range v {
			if m := x & (1<<63 - 1); m < lo || m >= hi {
				return j
			}
		}
		return len(v)
	}
	ends := append(scanLos[:], 3, 1<<62, 1<<63-1, 1<<63, 1<<63+9, 1<<64-1)
	v := make([]uint64, 9)
	for _, lo := range ends {
		for _, hi := range ends {
			insideRun(v, lo, hi, lo^hi|1)
			for _, e := range scanEdges(lo, hi) {
				for _, p := range []int{0, 3, 4, 8} {
					keep := v[p]
					v[p] = e
					if got, want := firstOutside63Scalar(v, lo, hi), def(v, lo, hi); got != want {
						t.Fatalf("lo=%#x hi=%#x, %#x at %d: scalar returns %d, the definition %d", lo, hi, e, p, got, want)
					}
					v[p] = keep
				}
			}
		}
	}
}

// TestAddU64MatchesScalar: the dispatched sum and the scalar loop agree on
// runs of 0–70 words at every pair of start offsets 0–7 inside two
// stream-sized buffers, over words uniform on 2⁶⁴ (half of all sums wrap) and
// over words next to 2⁶⁴ (all of them wrap), and dst may be x.
func TestAddU64MatchesScalar(t *testing.T) {
	dst0, x := make([]uint64, streamBuf), make([]uint64, streamBuf)
	for _, top := range []bool{false, true} {
		insideRun(dst0, 0, 0, 0x9e3779b97f4a7c15)
		insideRun(x, 0, 0, 0xbf58476d1ce4e5b9)
		if top {
			for i := range x {
				dst0[i], x[i] = dst0[i]|1<<63|1<<62, x[i]|1<<63|1<<62
			}
		}
		for doff := 0; doff < 8; doff++ {
			for xoff := 0; xoff < 8; xoff++ {
				for n := 0; n <= 70; n++ {
					got, want := slices.Clone(dst0), slices.Clone(dst0)
					AddU64(got[doff:doff+n], x[xoff:xoff+n])
					addU64Scalar(want[doff:doff+n], x[xoff:xoff+n])
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("near 2⁶⁴ %v, dst off %d x off %d n=%d: word %d is %#x, scalar %#x under impl %q", top, doff, xoff, n, i, got[i], want[i], Impl())
					}
				}
			}
		}
		for n := 0; n <= 70; n++ { // dst = x: each word doubled
			got, want := slices.Clone(dst0), slices.Clone(dst0)
			AddU64(got[3:3+n], got[3:3+n])
			addU64Scalar(want[3:3+n], want[3:3+n])
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("near 2⁶⁴ %v, dst = x, n=%d: word %d is %#x, scalar %#x under impl %q", top, n, i, got[i], want[i], Impl())
			}
		}
	}
	// The scalar loop is the textbook sum.
	d := []uint64{1<<64 - 1, 1 << 63, 7}
	addU64Scalar(d, []uint64{1, 1 << 63, 1<<64 - 8})
	if d[0] != 0 || d[1] != 0 || d[2] != 1<<64-1 {
		t.Fatalf("scalar sums %#x, want 0, 0, %#x", d, uint64(1<<64-1))
	}
}

func firstDiff(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
