package gen

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mggcn/internal/rng"
	"mggcn/internal/sparse"
)

// edgeSet is the Chung-Lu phase's edge store as one loop fills it: a
// linear-probing table of keys u<<32|v, u < v (so 0 marks an empty slot),
// homed by a Fibonacci hash's top bits, power-of-two sized, half full at
// most, and the edges in first-insertion order.
type edgeSet struct {
	seen   []uint64
	us, vs []int32
}

func newEdgeSet(capHint int) *edgeSet {
	s := &edgeSet{us: make([]int32, 0, capHint), vs: make([]int32, 0, capHint)}
	s.rehash(capHint)
	return s
}

// rehash resizes seen to a power of two ≥ slots and adds every edge again.
func (s *edgeSet) rehash(slots int) {
	s.seen = make([]uint64, 1<<bits.Len(uint(max(slots, 2)-1)))
	us, vs := s.us, s.vs
	s.us, s.vs = us[:0], vs[:0]
	for i := range us {
		s.add(us[i], vs[i])
	}
}

func (s *edgeSet) add(u, v int32) {
	if u > v {
		u, v = v, u
	}
	key, mask := uint64(u)<<32|uint64(v), uint64(len(s.seen)-1)
	for i := key * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(mask); s.seen[i] != key; i = (i + 1) & mask {
		if s.seen[i] == 0 {
			s.seen[i] = key
			s.us, s.vs = append(s.us, u), append(s.vs, v)
			if 2*len(s.us) > len(s.seen) {
				s.rehash(2 * len(s.seen))
			}
			return
		}
	}
}

// toCSR materializes both directions of every stored edge: one counting
// scatter by row leaves each row's columns unsorted, and as the graph is
// symmetric, its transpose is the same graph with every row sorted.
func (s *edgeSet) toCSR(n int) *sparse.CSR {
	m := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+2), ColIdx: make([]int32, 2*len(s.us))}
	for i := range s.us { // the cursors live in RowPtr one slot ahead, as in TransposeInto
		m.RowPtr[s.us[i]+2]++
		m.RowPtr[s.vs[i]+2]++
	}
	for r := 0; r < n; r++ {
		m.RowPtr[r+2] += m.RowPtr[r+1]
	}
	for i := range s.us {
		u, v := s.us[i], s.vs[i]
		m.ColIdx[m.RowPtr[u+1]] = v
		m.RowPtr[u+1]++
		m.ColIdx[m.RowPtr[v+1]] = u
		m.RowPtr[v+1]++
	}
	m.RowPtr = m.RowPtr[:n+1]
	return m.Transpose()
}

// serialChungLu is phase 2 as one loop: attempts in order, each two
// Float64s of r inverted by binary search, until target distinct edges are
// held, phase 1's hits counted, or 4·target attempts. It returns the graph
// and the attempts made.
func serialChungLu(r *rng.RNG, excess []float64, hits [][]uint64, target int) (*sparse.CSR, int) {
	edges := newEdgeSet(target)
	for _, h := range hits {
		for _, key := range h {
			edges.add(int32(key>>32), int32(key))
		}
	}
	cdf := cumulative(excess)
	attempt := 0
	if total := cdf[len(cdf)-1]; total > 0 {
		for ; attempt < 4*target && len(edges.us) < target; attempt++ {
			u := sort.SearchFloat64s(cdf, r.Float64()*total)
			v := sort.SearchFloat64s(cdf, r.Float64()*total)
			if u != v {
				edges.add(int32(u), int32(v))
			}
		}
	}
	return edges.toCSR(len(excess)), attempt
}

// phase2 is BTER's state where phase 2 starts: its substream's seed, the
// excess degrees, phase 1's hits (drawn on one lane) and the target.
type phase2 struct {
	seed   int64
	excess []float64
	hits   [][]uint64
	target int
}

func phase2Of(cfg BTERConfig) phase2 {
	excess, hits := affinity(cfg, 1)
	return phase2{rng.SplitSeed(int64(cfg.Seed), 1, 0), excess, hits, int(cfg.AvgDegree * float64(cfg.N) / 2)}
}

// checkChungLu fails unless chungLu makes the graph the serial loop makes
// from p's state on each of the lane counts, and returns the loop's
// attempts.
func checkChungLu(t testing.TB, p phase2, lanes ...int) int {
	t.Helper()
	want, attempts := serialChungLu(rng.NewRNG(p.seed), p.excess, p.hits, p.target)
	for _, l := range lanes {
		if got := chungLu(p.seed, p.excess, p.hits, p.target, l).toCSR(len(p.excess), l); csrDigest(got) != csrDigest(want) {
			t.Fatalf("n=%d target %d on %d lanes: chungLu's graph (%d entries) is not the serial loop's (%d, %d attempts)",
				len(p.excess), p.target, l, got.NNZ(), want.NNZ(), attempts)
		}
	}
	return attempts
}

// TestChungLuMatchesSerialLoop holds phase 2 to the serial loop on graphs
// whose tables have one part, four and 16, on one to three lanes and on as many
// as pay.
func TestChungLuMatchesSerialLoop(t *testing.T) {
	cfgs := []BTERConfig{DefaultBTER(3000, 40, 1), DefaultBTER(200, 150, 7), DefaultBTER(500, 6, 0)}
	if !testing.Short() {
		cfgs = append(cfgs, DefaultBTER(4096, 96, 2))
	}
	for _, cfg := range cfgs {
		checkChungLu(t, phase2Of(cfg), 0, 1, 2, 3)
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

// TestEdgeTableGrows fills an edge table whose four parts start at 16 slots
// each, so every part grows several times, from runs on one to three lanes
// over two adds, with duplicates and empty keys among them, and holds its CSR
// to the edgeSet oracle's.
func TestEdgeTableGrows(t *testing.T) {
	const n, keys = 300, 6000
	for lanes := 1; lanes <= 3; lanes++ {
		r, tab, want := rng.NewRNG(int64(lanes)), newEdgeTable(1<<15), newEdgeSet(1)
		if tab.size = 16; len(tab.parts) != 4 {
			t.Fatalf("%d parts, want 4", len(tab.parts))
		}
		for range 2 {
			runs := make([][]uint64, lanes)
			for k := range runs {
				for range keys / lanes {
					u, v := r.Intn(n), r.Intn(n)
					key := uint64(min(u, v))<<32 | uint64(max(u, v))
					if u == v {
						key = 0
					} else {
						want.add(int32(u), int32(v))
					}
					runs[k] = append(runs[k], key)
				}
			}
			tab.add(runs, lanes)
		}
		for p, part := range tab.parts {
			if len(part) < 8*tab.size {
				t.Fatalf("%d lanes: part %d holds %d slots, so it grew fewer than three times", lanes, p, len(part))
			}
		}
		if tab.held != len(want.us) || csrDigest(tab.toCSR(n, lanes)) != csrDigest(want.toCSR(n)) {
			t.Fatalf("%d lanes: the grown table holds %d edges, the oracle %d, or another graph", lanes, tab.held, len(want.us))
		}
	}
}

// TestEdgeTableStopsAtTarget holds the round that ends phase 2 by
// construction, on one to three lanes: hand-built attempts, after phase 1's
// hits, whose new edges reach the target exactly at the round's end (nothing
// to trim) or overshoot it by one (trim takes the last new edge out). The
// attempts repeat an edge, repeat a hit and hold u = v attempts (key 0). The
// table must hold the edges the edgeSet oracle holds when fed the same
// attempts in order until it reaches the target.
func TestEdgeTableStopsAtTarget(t *testing.T) {
	const n = 20
	key := func(u, v int) uint64 { return uint64(u)<<32 | uint64(v) }
	hits := []uint64{key(0, 1), key(2, 3)}
	// Seven new edges, the last of them the round's last attempt.
	round := []uint64{key(4, 5), 0, key(0, 1), key(6, 7), key(4, 5), key(8, 9), key(10, 11),
		0, key(12, 13), key(6, 7), key(14, 15), key(2, 3), key(16, 17)}
	for _, c := range []struct {
		name         string
		target, over int
	}{{"exact", len(hits) + 7, 0}, {"over-by-one", len(hits) + 6, 1}} {
		want := newEdgeSet(1)
		for _, k := range slices.Concat(hits, round) {
			if k != 0 && len(want.us) < c.target {
				want.add(int32(k>>32), int32(k))
			}
		}
		for lanes := 1; lanes <= 3; lanes++ {
			tab := newEdgeTable(c.target)
			tab.add([][]uint64{hits}, 1)
			need, runs := c.target-tab.held, make([][]uint64, lanes)
			for k := range runs {
				runs[k] = round[k*len(round)/lanes : (k+1)*len(round)/lanes]
			}
			if tab.add(runs, lanes); tab.held-c.target != c.over {
				t.Fatalf("%s on %d lanes: the round overshoots by %d, want %d", c.name, lanes, tab.held-c.target, c.over)
			}
			if tab.held > c.target {
				tab.trim(len(round), need)
			}
			if tab.held != c.target || csrDigest(tab.toCSR(n, lanes)) != csrDigest(want.toCSR(n)) {
				t.Errorf("%s on %d lanes: the table holds %d edges, the oracle %d, or another graph", c.name, lanes, tab.held, len(want.us))
			}
		}
	}
}

// FuzzChungLu holds phase 2 on one to three lanes to the serial loop, from
// the state phase 1 leaves, over fuzzed vertex counts (2–600), degrees
// (0.5–128, past N−1 too, where the loop runs out of attempts), community
// fractions (0–4: at 0 no block pair is a hit, at and past 1 every one is)
// and seeds.
func FuzzChungLu(f *testing.F) {
	f.Add(uint16(98), uint8(3), uint8(32), uint64(6), uint8(1))
	f.Add(uint16(28), uint8(3), uint8(0), uint64(22), uint8(2))
	f.Add(uint16(18), uint8(37), uint8(32), uint64(1), uint8(1))   // out of attempts
	f.Add(uint16(198), uint8(255), uint8(32), uint64(7), uint8(2)) // mostly collisions
	f.Add(uint16(598), uint8(15), uint8(96), uint64(5), uint8(0))
	f.Fuzz(func(t *testing.T, n uint16, deg, frac uint8, seed uint64, lanes uint8) {
		cfg := DefaultBTER(2+int(n)%599, (float64(deg)+1)/2, seed)
		cfg.CommunityFrac = float64(frac) / 64
		checkChungLu(t, phase2Of(cfg), 1+int(lanes)%3)
	})
}
