// Package gen synthesizes the benchmark graphs of the paper's Table 1 and
// the BTER-scaled Arxiv family of Figure 9. The module is offline, so the
// OGB/Reddit downloads the paper uses are replaced by a BTER-style
// generative model (Kolda et al., the generator the paper itself uses for
// its synthetic experiments): a target power-law degree sequence, dense
// affinity blocks of similar-degree vertices (community structure), and a
// Chung-Lu phase for the excess degree.
//
// The generator intentionally emits vertices sorted by degree. Real-world
// benchmark orderings concentrate high-degree vertices the same way, which
// is what makes the paper's "original ordering" load-imbalanced (Fig 6);
// random permutation (§5.2) is the fix in both worlds.
package gen

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"mggcn/internal/graph"
	"mggcn/internal/kernel"
	"mggcn/internal/sparse"
)

// BTERConfig controls the synthetic graph generator.
type BTERConfig struct {
	N         int     // number of vertices
	AvgDegree float64 // target average (out-)degree
	// PowerLawExp is the degree distribution exponent (typical social
	// graphs are 2..3; lower means heavier tail).
	PowerLawExp float64
	// CommunityFrac is the fraction of each vertex's degree spent inside
	// its affinity block (clustering); the rest goes to the Chung-Lu phase.
	CommunityFrac float64
	// FeatureNoise is the per-feature Gaussian noise scale around the
	// class centroid (non-phantom datasets only).
	FeatureNoise float64
	Seed         uint64
}

// DefaultBTER returns a config with the generator defaults used by the
// dataset catalog: exponent 2.4, half of the degree inside communities.
func DefaultBTER(n int, avgDegree float64, seed uint64) BTERConfig {
	return BTERConfig{N: n, AvgDegree: avgDegree, PowerLawExp: 2.4, CommunityFrac: 0.5, FeatureNoise: 3.0, Seed: seed}
}

// degreeSequence draws N degrees from a discrete truncated power law and
// rescales them to hit the target average exactly (up to rounding).
func degreeSequence(cfg BTERConfig, rng *stream) []int {
	if cfg.N <= 0 {
		panic("gen: N must be positive")
	}
	if cfg.AvgDegree <= 0 {
		panic("gen: AvgDegree must be positive")
	}
	maxDeg := float64(max(cfg.N-1, 1))
	degs := make([]float64, cfg.N)
	var sum float64
	for i := range degs {
		// Inverse-CDF sampling of a Pareto(1, PowerLawExp-1) tail, truncated.
		degs[i] = min(math.Pow(1-rng.Float64(), -1/(cfg.PowerLawExp-1)), maxDeg)
		sum += degs[i]
	}
	scale := cfg.AvgDegree * float64(cfg.N) / sum
	out := make([]int, cfg.N)
	var carry float64
	for i, d := range degs {
		v := d*scale + carry
		out[i] = int(v)
		carry = v - float64(out[i])
		out[i] = max(out[i], 1)
		if cfg.N > 1 {
			out[i] = min(out[i], cfg.N-1)
		}
	}
	// Sort descending: the generator's "natural" vertex order groups
	// similar-degree vertices, like the affinity blocks of real BTER.
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// BTER generates a directed graph (each undirected edge stored in both
// directions) whose degree distribution approximates the config. Phase 1
// draws once per vertex pair of every affinity block, Σ size²/2 draws; with
// a hub of degree N−1 the first block is the whole graph (8·10⁸ draws at
// N = 40000). Phase 2 draws two endpoints per attempt, each in O(1) expected
// time through a guide table, for at most 2·AvgDegree·N attempts. Both
// phases read math/rand's seeded stream inline (stream).
func BTER(cfg BTERConfig) *sparse.CSR {
	rng, n := newStream(cfg.Seed), cfg.N
	degs := degreeSequence(cfg, rng)

	edges := newEdgeSet(int(cfg.AvgDegree*float64(n)) + n)

	// Phase 1: affinity blocks. Consecutive vertices (already degree
	// sorted) form blocks of the first one's degree + 1; wire each densely in
	// proportion to CommunityFrac of its members' degree budget.
	excess := make([]float64, n)
	var hits []int32
	for blockStart := 0; blockStart < n; {
		size := min(degs[blockStart]+1, n-blockStart)
		if size < 2 {
			excess[blockStart] += float64(degs[blockStart])
			blockStart++
			continue
		}
		// Probability chosen so expected within-block degree is
		// CommunityFrac * min-degree of the block.
		dMin := degs[blockStart+size-1]
		p := min(cfg.CommunityFrac*float64(dMin)/float64(size-1), 1)
		t := threshold(p)
		for i := blockStart; i < blockStart+size; i++ {
			hits = rng.bernoulli(hits[:0], blockStart+size-i-1, t)
			for _, k := range hits {
				edges.add(int32(i), int32(i+1)+k)
			}
		}
		for i := blockStart; i < blockStart+size; i++ {
			if e := float64(degs[i]) - p*float64(size-1); e > 0 {
				excess[i] = e
			}
		}
		blockStart += size
	}

	// Phase 2: Chung-Lu on the excess degrees. Sample endpoints with
	// probability proportional to excess weight: the inverse CDF of a
	// prefix-sum table, searched from a guide table.
	cdf := make([]float64, n)
	var total float64
	for i, e := range excess {
		total += e
		cdf[i] = total
	}
	if total > 0 {
		g := newGuide(cdf)
		// Sample until the undirected edge count reaches the target, so
		// duplicate collisions on dense graphs don't erode average degree.
		targetEdges := int(cfg.AvgDegree * float64(n) / 2)
		maxAttempts := 4 * targetEdges
		for attempt := 0; attempt < maxAttempts && len(edges.us) < targetEdges; attempt++ {
			u := g.search(rng.Float64())
			v := g.search(rng.Float64())
			if u != v {
				edges.add(int32(u), int32(v))
			}
		}
	}
	return edges.toCSR(n)
}

// guide inverts a cumulative weight table by indexed search (Chen & Asau,
// 1974). start[b] is the first index whose cdf reaches b/n of the total, so a
// draw u starts at its bucket's entry, start[int(u·n)], and walks from there.
// The n buckets are equally likely and together hold the n entries, so a draw
// walks O(1) entries in expectation, where a binary search takes log₂ n steps.
type guide struct {
	cdf   []float64 // nondecreasing, non-empty
	start []int32   // len(cdf)+1 entries: int(u·n) reaches n when u·n rounds up
}

func newGuide(cdf []float64) *guide {
	n, total := len(cdf), cdf[len(cdf)-1]
	g, i := &guide{cdf: cdf, start: make([]int32, n+1)}, 0
	for b := range g.start {
		x := float64(b) / float64(n) * total
		for i < n && cdf[i] < x {
			i++
		}
		g.start[b] = int32(i)
	}
	return g
}

// search returns sort.SearchFloat64s(cdf, u·total) for u in [0, 1). The walk
// back and the walk forward make it exact whichever bucket u·n rounds to.
func (g *guide) search(u float64) int {
	n := len(g.cdf)
	x := u * g.cdf[n-1]
	i := int(g.start[int(u*float64(n))])
	for i > 0 && g.cdf[i-1] >= x {
		i--
	}
	for i < n && g.cdf[i] < x {
		i++
	}
	return i
}

// stream is rand.New(rand.NewSource(seed))'s value stream without an
// interface call per draw. That source is an additive lagged-Fibonacci
// generator, x[n] = x[n−607] + x[n−273] mod 2⁶⁴, whose seed sets only its
// first 607 outputs, so the stream copies those and runs the recurrence
// inline. Go keeps the seeded stream stable (rand.Float64: "we want to
// preserve that value stream"), so graphs and goldens match math/rand's.
type stream struct {
	buf [607]uint64 // x[n0], …, x[n0+606]
	pos int         // index in buf of the next draw
}

// mask63 turns a Uint64 into math/rand's Int63. An Int63 ≥ redraw rounds
// to 1 as a Float64, which math/rand draws again rather than return.
const mask63, redraw = 1<<63 - 1, 1<<63 - 512

func newStream(seed uint64) *stream {
	src, s := rand.NewSource(int64(seed)).(rand.Source64), &stream{}
	for i := range s.buf {
		s.buf[i] = src.Uint64()
	}
	return s
}

// refill advances buf by 607 values in place, in three runs of disjoint
// slices: every lag-273 read past the first run is a value written before it.
func (s *stream) refill() {
	kernel.AddU64(s.buf[0:273], s.buf[334:607])
	kernel.AddU64(s.buf[273:546], s.buf[0:273])
	kernel.AddU64(s.buf[546:607], s.buf[273:334])
	s.pos = 0
}

// Float64 is rand.Rand's Float64.
func (s *stream) Float64() float64 {
	for {
		if s.pos == len(s.buf) {
			s.refill()
		}
		v := s.buf[s.pos] & mask63
		if s.pos++; v < redraw {
			return float64(int64(v)) / (1 << 63)
		}
	}
}

// threshold returns the least Int63 v with float64(v)/2⁶³ ≥ p, capped at
// redraw: below redraw, Float64() < p exactly when v < threshold(p).
func threshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(redraw)
	for lo < hi {
		if mid := lo + (hi-lo)/2; float64(int64(mid)) >= p*(1<<63) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// bernoulli appends to dst each k < n for which the k-th of n calls
// Float64() < p would hold, t = threshold(p), and consumes what they would.
// A draw in [t, redraw) is a miss; the first outside is a hit or a redraw.
func (s *stream) bernoulli(dst []int32, n int, t uint64) []int32 {
	for k := 0; k < n; {
		if s.pos == len(s.buf) {
			s.refill()
		}
		run := s.buf[s.pos:min(len(s.buf), s.pos+n-k)]
		i := kernel.FirstOutside63(run, t, redraw)
		s.pos, k = s.pos+i, k+i
		if i < len(run) { // a hit, or a redraw of draw k
			if run[i]&mask63 < t {
				dst, k = append(dst, int32(k)), k+1
			}
			s.pos++
		}
	}
	return dst
}

// edgeSet accumulates undirected edges without duplicates in seen, a
// linear-probing table of keys u<<32|v, u < v (so 0 marks an empty slot),
// homed by a Fibonacci hash's top bits, power-of-two sized, half full at most.
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

// Generate builds a full dataset: BTER structure, homophilous labels, and
// class-informative features. When phantom is true, features and labels are
// omitted (structure-only, for timing/memory experiments) and only FeatDim
// and Classes metadata are set.
func Generate(name string, cfg BTERConfig, featDim, classes int, phantom bool) *graph.Graph {
	if featDim <= 0 || classes <= 0 {
		panic(fmt.Sprintf("gen: featDim %d / classes %d must be positive", featDim, classes))
	}
	adj := BTER(cfg)
	g := &graph.Graph{Name: name, Adj: adj, FeatDim: featDim, Classes: classes}
	if !phantom {
		rng := rand.New(rand.NewSource(int64(cfg.Seed) + 1))
		g.Labels = PropagatedLabels(adj, classes, rng)
		g.Features = ClassFeatures(g.Labels, featDim, classes, cfg.FeatureNoise, rng)
		g.Split(0.6, 0.2, cfg.Seed+2)
	}
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("gen: generated invalid graph: %v", err))
	}
	return g
}
