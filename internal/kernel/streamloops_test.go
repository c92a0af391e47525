package kernel

import (
	"fmt"
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

// TestAdvanceScan63MatchesScalar: the dispatched block step and the scalar
// body leave the same words and return the same index with each value next
// to a bound planted at every position of a block otherwise inside, at the
// lows the probe runs and at bounds outside the stream's use, lo = hi = 0
// (the stream's plain refill) among them; and on blocks
// of words uniform on 2⁶⁴ (half of all sums wrap) and next to 2⁶⁴ (all of
// them do), whose scan stops at the first word outside.
func TestAdvanceScan63MatchesScalar(t *testing.T) {
	bounds := [][2]uint64{{1 << 62, 3}, {0, 1 << 63}, {5, 1<<64 - 1}, {1 << 63, 1<<63 + 9}, {1<<63 - 1, 1 << 63}, {0, 0}}
	for _, lo := range scanLos {
		bounds = append(bounds, [2]uint64{lo, streamRedraw})
	}
	every := make([]int, 607)
	for p := range every {
		every[p] = p
	}
	for _, b := range bounds {
		if err := checkAdvanceScan63(AdvanceScan63, b[:1], b[1], every); err != nil {
			t.Fatalf("%v under impl %q", err, Impl())
		}
	}
	var next [607]uint64
	for _, top := range []bool{false, true} {
		insideRun(next[:], 0, 0, 0x9e3779b97f4a7c15)
		for i := range next {
			if top {
				next[i] |= 1<<63 | 1<<62
			}
		}
		for _, b := range bounds {
			got, want := next, next
			if i, j := AdvanceScan63(&got, b[0], b[1]), advanceScan63Scalar(&want, b[0], b[1]); i != j || got != want {
				t.Fatalf("near 2⁶⁴ %v, lo=%#x hi=%#x: returns %d, scalar %d (words equal: %v) under impl %q", top, b[0], b[1], i, j, got == want, Impl())
			}
		}
	}
}

// TestAdvanceScan63Definition holds the scalar body, which the dispatched
// step is held to, to the entry's own words: the recurrence one word at a
// time, and the block it steps to is the one the preimage was taken of.
func TestAdvanceScan63Definition(t *testing.T) {
	var buf [607]uint64
	insideRun(buf[:], 0, 0, 0xbf58476d1ce4e5b9)
	def, got := buf, buf
	for j := range def {
		def[j] += def[(j+334)%len(def)]
	}
	if i := advanceScan63Scalar(&got, 0, 1<<63); i != len(buf) || got != def {
		t.Fatalf("scalar returns %d with every word inside, and its words equal the recurrence's: %v", i, got == def)
	}
	if old := streamPreimage(&def); advanceScan63Scalar(&old, 0, 1<<63) != len(buf) || old != def {
		t.Fatalf("the preimage does not step to its block")
	}
	if err := probeAdvanceScan63(advanceScan63Scalar); err != nil {
		t.Fatalf("the scalar body fails the probe: %v", err)
	}
	// The add loop is the textbook sum.
	d := []uint64{1<<64 - 1, 1 << 63, 7}
	addU64Scalar(d, []uint64{1, 1 << 63, 1<<64 - 8})
	if d[0] != 0 || d[1] != 0 || d[2] != 1<<64-1 {
		t.Fatalf("scalar sums %#x, want 0, 0, %#x", d, uint64(1<<64-1))
	}
}
