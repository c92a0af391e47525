package gen

import (
	"math"
	"math/rand"
	"testing"
)

// rawSource serves math/rand the raw Uint64 values that continue a stream's
// state, so that rand.New(newRawSource(s)).Float64 is math/rand's own
// Float64, redraw loop included, over any state a test crafts. It runs the
// textbook recurrence x[j] = x[j−607] + x[j−273] mod 2⁶⁴ over a ring of its
// own, never stream.refill, so a wrong refill shows.
type rawSource struct {
	x [607]uint64 // x[j] in slot j mod 607, for the last 607 j
	j int         // the next value's index; the state's buf is x[0..606]
}

func newRawSource(s stream) *rawSource { return &rawSource{x: s.buf, j: s.pos} }

func (r *rawSource) Uint64() uint64 {
	i := r.j % len(r.x)
	if r.j >= len(r.x) { // slot i holds x[j−607]
		r.x[i] += r.x[(r.j-273)%len(r.x)]
	}
	r.j++
	return r.x[i]
}

func (r *rawSource) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }
func (r *rawSource) Seed(int64)   { panic("rawSource: Seed") }

// bernoulliProbs are the probabilities the differential tests run: the two
// ends, where the threshold is 0 and redraw, and the largest p below 1.
var bernoulliProbs = []float64{0, 1e-5, 0.5, math.Nextafter(1, 0), 1}

// checkBernoulli runs one bulk run of n draws at p on s and the same n
// per-draw Float64() < p on ref, and fails unless the hits agree and the
// next Float64 of each agrees too (the run consumed what the calls did).
func checkBernoulli(t testing.TB, s *stream, ref *rand.Rand, n int, p float64) {
	t.Helper()
	hits := s.bernoulli(nil, n, threshold(p))
	var want []int32
	for k := 0; k < n; k++ {
		if ref.Float64() < p {
			want = append(want, int32(k))
		}
	}
	if len(hits) != len(want) {
		t.Fatalf("n=%d p=%v: %d hits, per-draw Float64 gives %d", n, p, len(hits), len(want))
	}
	for i := range hits {
		if hits[i] != want[i] {
			t.Fatalf("n=%d p=%v: hit %d at draw %d, per-draw Float64 at %d", n, p, i, hits[i], want[i])
		}
	}
	if got, want := s.Float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n=%d p=%v: Float64 after the run %v, math/rand %v", n, p, got, want)
	}
}

func TestStreamFloat64MatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, -7, math.MinInt64, math.MaxInt64} {
		s, ref := newStream(uint64(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 1_000_000; i++ {
			if got, want := s.Float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, draw %d: Float64 %v, math/rand %v", seed, i, got, want)
			}
		}
	}
}

func TestStreamBernoulliMatchesFloat64(t *testing.T) {
	lengths := []int{0, 1, 3, 4, 5, 606, 607, 608, 1214, 5000, 100_000}
	for _, seed := range []int64{0, 3, -11} {
		for _, p := range bernoulliProbs {
			s, ref := newStream(uint64(seed)), rand.New(rand.NewSource(seed))
			draws := 0
			for draws < 1_000_000 {
				for _, n := range lengths {
					// checkBernoulli's trailing Float64 moves the runs off the
					// refill boundary.
					checkBernoulli(t, s, ref, n, p)
					draws += n + 1
				}
			}
		}
	}
}

func TestThresholdExact(t *testing.T) {
	ps := append([]float64{-1, math.SmallestNonzeroFloat64, 1e-300, 1.0 / 3, 0.1, 0.999, 2, math.Inf(1)}, bernoulliProbs...)
	for _, p := range ps {
		th := threshold(p)
		if th > redraw {
			t.Fatalf("p=%v: threshold %d above redraw", p, th)
		}
		// Every Int63 at or past the threshold (and below redraw) is a miss,
		// every one below it a hit: check both sides of the boundary.
		if th < redraw && !(float64(int64(th))/(1<<63) >= p) {
			t.Errorf("p=%v: threshold %d draws %v, which is < p", p, th, float64(int64(th))/(1<<63))
		}
		if th > 0 && !(float64(int64(th-1))/(1<<63) < p) {
			t.Errorf("p=%v: threshold-1 = %d draws %v, which is not < p", p, th-1, float64(int64(th-1))/(1<<63))
		}
	}
	if threshold(1) != redraw || threshold(0) != 0 {
		t.Fatalf("threshold(1) = %d, threshold(0) = %d; want redraw and 0", threshold(1), threshold(0))
	}
}

// TestRawSourceMatchesMathRand holds the reference recurrence to math/rand's
// own source across several refills' worth of values.
func TestRawSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -7} {
		r, ref := newRawSource(*newStream(uint64(seed))), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 5000; i++ {
			if got, want := r.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d, value %d: %#x, math/rand %#x", seed, i, got, want)
			}
		}
	}
}

// TestStreamRedraw crafts states whose next raw values straddle redraw, a
// branch no natural seed reaches (about 2⁻⁵⁴ per draw), and checks Float64
// and the bulk path against math/rand's own Float64 over the same values.
func TestStreamRedraw(t *testing.T) {
	for _, pos := range []int{0, 1, 3, 4, 300, 603, 606} {
		for _, v := range []uint64{redraw, redraw - 1, 1<<63 - 1, 1<<64 - 1, 1<<63 | redraw, 1<<63 | (redraw - 1)} {
			crafted := *newStream(uint64(pos))
			crafted.pos = pos
			crafted.buf[pos] = v
			if pos+1 < len(crafted.buf) {
				crafted.buf[pos+1] = 1<<64 - 1 // two redraws in a row
			}
			s, ref := crafted, rand.New(newRawSource(crafted))
			for i := 0; i < 2000; i++ {
				if got, want := s.Float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("pos %d value %#x, draw %d: Float64 %v, math/rand %v", pos, v, i, got, want)
				}
			}
			for _, p := range bernoulliProbs {
				s, ref := crafted, rand.New(newRawSource(crafted))
				checkBernoulli(t, &s, ref, 2000, p)
			}
		}
	}
}

func TestEdgeSetGrowsAndDedups(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := newEdgeSet(1)
	seen := map[[2]int32]bool{}
	var order [][2]int32
	for i := 0; i < 20000; i++ {
		u, v := int32(rng.Intn(50)), int32(rng.Intn(50))
		if u == v {
			continue
		}
		s.add(u, v)
		key := [2]int32{min(u, v), max(u, v)}
		if !seen[key] {
			seen[key] = true
			order = append(order, key)
		}
	}
	if len(s.us) != len(order) || 2*len(s.us) > len(s.seen) {
		t.Fatalf("%d edges in a %d-slot table, want %d at most half full", len(s.us), len(s.seen), len(order))
	}
	for i, e := range order {
		if s.us[i] != e[0] || s.vs[i] != e[1] {
			t.Fatalf("edge %d is (%d,%d), want (%d,%d) in first-insertion order", i, s.us[i], s.vs[i], e[0], e[1])
		}
	}
}

// FuzzStream interleaves Float64 draws and bulk Bernoulli runs of fuzzed
// length and probability against a rand.Rand on the same seed.
func FuzzStream(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 200, 3, 7, 0, 255, 2})
	f.Add(int64(-5), []byte{9, 64, 9, 255, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		s, ref := newStream(uint64(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			if op&1 == 0 {
				if got, want := s.Float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d: Float64 %v, math/rand %v", i, got, want)
				}
				continue
			}
			p := float64(arg) / 255
			if int(arg) < len(bernoulliProbs) {
				p = bernoulliProbs[arg]
			}
			checkBernoulli(t, s, ref, int(op>>1)*int(op>>1)*8, p)
		}
	})
}
