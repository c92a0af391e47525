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
	"runtime"
	"slices"
	"sort"

	"mggcn/internal/graph"
	"mggcn/internal/pool"
	"mggcn/internal/rng"
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
// rescales them to hit the target average exactly (up to rounding). It reads
// the first N Float64s of math/rand's stream seeded with cfg.Seed.
func degreeSequence(cfg BTERConfig) []int {
	if cfg.N <= 0 {
		panic("gen: N must be positive")
	}
	if cfg.AvgDegree <= 0 {
		panic("gen: AvgDegree must be positive")
	}
	src := rand.New(rand.NewSource(int64(cfg.Seed)))
	maxDeg := float64(max(cfg.N-1, 1))
	degs := make([]float64, cfg.N)
	var sum float64
	for i := range degs {
		// Inverse-CDF sampling of a Pareto(1, PowerLawExp-1) tail, truncated.
		degs[i] = min(math.Pow(1-src.Float64(), -1/(cfg.PowerLawExp-1)), maxDeg)
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
	slices.Sort(out)
	slices.Reverse(out)
	return out
}

// BTER generates a directed graph (each undirected edge stored in both
// directions) whose degree distribution approximates the config. Phase 1
// skips from hit to hit in each row of every affinity block, a draw per hit;
// phase 2 draws two endpoints per attempt, each in O(1) expected time
// through a guide table, for at most 2·AvgDegree·N attempts. Both phases run
// on every pool lane and draw from substreams of the seed (rng.SplitSeed)
// that any lane reaches by index, so the graph is the same on any lane
// count.
func BTER(cfg BTERConfig) *sparse.CSR { return bter(cfg, 0, nil) }

// bter is BTER with both phases on the given lane count, or where lanes is
// 0 on as many as pay, and side, when not nil, run beside phase 2: it reads
// nothing of the graph.
func bter(cfg BTERConfig, lanes int, side func()) *sparse.CSR {
	excess, hits := affinity(cfg, lanes)
	var adj *sparse.CSR
	pool.ForChunks(2, lanes, func(c int) {
		if c == 1 {
			if side != nil {
				side()
			}
			return
		}
		adj = chungLu(rng.SplitSeed(int64(cfg.Seed), 1, 0), excess, hits, int(cfg.AvgDegree*float64(cfg.N)/2), lanes).toCSR(cfg.N, lanes)
	})
	return adj
}

// drawsFrom is the substream seeded s from its k-th draw on: draw k of a
// splitmix64 stream is rng.Mix(s + (k+1)·rng.Gamma).
func drawsFrom(s int64, k int) *rng.RNG { return rng.NewRNG(int64(uint64(s) + uint64(k)*rng.Gamma)) }

// pairRow is row i of an affinity block ending at end: each pair (i, j), j
// in (i, end), is a hit with probability p, where logq = ln(1 − p).
type pairRow struct {
	i, end int
	logq   float64
}

// hits appends the row's hits to dst as edge keys, drawn from substream
// (0, i) of seed. The misses before the next hit are geometric, ⌊ln(1 − u) /
// ln(1 − p)⌋ for a uniform u (Batagelj & Brandes, "Efficient generation of
// large random networks", Phys. Rev. E 71, 2005), so the row costs a draw per
// hit and one more, not one per pair. At p = 1 every pair is a hit without a
// draw, and at p ≤ 0 (logq not below 0, NaN included) none is.
func (r pairRow) hits(dst []uint64, seed int64) []uint64 {
	if !(r.logq < 0) {
		return dst
	}
	s := rng.NewRNG(rng.SplitSeed(seed, 0, r.i))
	for j := r.i; ; {
		gap := 0.0
		if !math.IsInf(r.logq, -1) {
			gap = math.Floor(math.Log(1-s.Float64()) / r.logq)
		}
		if gap >= float64(r.end-j-1) {
			return dst
		}
		j += 1 + int(gap)
		dst = append(dst, uint64(r.i)<<32|uint64(j))
	}
}

// laneWork is the least work a lane is given: phase 1's expected draws, or
// phase 2's attempts (two draws and their two searches each). A lane starts
// its substreams at an index, so it pays only for being scheduled.
const laneWork = 1 << 14

// laneCount is lanes, or where lanes is 0 as many lanes, up to GOMAXPROCS,
// as work pays for at per units a lane.
func laneCount(lanes, work, per int) int {
	if lanes > 0 {
		return lanes
	}
	return min(runtime.GOMAXPROCS(0), max(work/per, 1))
}

// affinity is phase 1. Consecutive vertices (already degree sorted) form
// blocks of the first one's degree + 1, each wired densely in proportion to
// CommunityFrac of its members' degree budget. It returns each vertex's
// degree left for phase 2 and the hits as edge keys, one list per lane: the
// rows are cut into one run of equal expected draws per lane. The hits are
// distinct: the blocks are disjoint and each pair is drawn once.
func affinity(cfg BTERConfig, lanes int) ([]float64, [][]uint64) {
	n, degs := cfg.N, degreeSequence(cfg)
	excess := make([]float64, n)
	var rows []pairRow
	var work []int // the expected draws up to and including each row
	total := 0
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
		for i := blockStart; i < blockStart+size; i++ {
			total += 1 + int(p*float64(blockStart+size-i-1))
			rows, work = append(rows, pairRow{i, blockStart + size, math.Log1p(-p)}), append(work, total)
			if e := float64(degs[i]) - p*float64(size-1); e > 0 {
				excess[i] = e
			}
		}
		blockStart += size
	}
	hits := make([][]uint64, laneCount(lanes, total, laneWork))
	pool.ForChunks(len(hits), len(hits), func(k int) {
		lo, _ := slices.BinarySearch(work, k*total/len(hits)+1)
		hi, _ := slices.BinarySearch(work, (k+1)*total/len(hits)+1)
		for _, r := range rows[lo:hi] {
			hits[k] = r.hits(hits[k], int64(cfg.Seed))
		}
	})
	return excess, hits
}

// guide inverts a cumulative weight table by indexed search (Chen & Asau,
// 1974). start[b] is the first index whose cdf reaches b/m of the total, for
// m = len(start)−1 buckets, so a draw u starts at its bucket's entry,
// start[int(u·m)], and walks from there. With m = 4n equally likely buckets
// (fewer past 2¹⁶ entries, so that start stays L2-sized) holding the n
// entries, a draw walks O(1) entries in expectation, where a binary search
// takes log₂ n steps.
type guide struct {
	cdf   []float64 // nondecreasing, non-empty
	start []int32   // m+1 entries: int(u·m) reaches m when u·m rounds up
}

func newGuide(cdf []float64) *guide {
	n, total := len(cdf), cdf[len(cdf)-1]
	m := min(4*n, 1<<18)
	g, i := &guide{cdf: cdf, start: make([]int32, m+1)}, 0
	for b := range g.start {
		x := float64(b) / float64(m) * total
		for i < n && cdf[i] < x {
			i++
		}
		g.start[b] = int32(i)
	}
	return g
}

// search returns sort.SearchFloat64s(cdf, u·total) for u in [0, 1). The walk
// back and the walk forward make it exact whichever bucket u·m rounds to.
func (g *guide) search(u float64) int {
	n := len(g.cdf)
	x := u * g.cdf[n-1]
	i := int(g.start[int(u*float64(len(g.start)-1))])
	for i > 0 && g.cdf[i-1] >= x {
		i--
	}
	for i < n && g.cdf[i] < x {
		i++
	}
	return i
}

// chungLu is phase 2: it draws endpoint pairs by excess weight, an edge
// unless they are one vertex, until target distinct edges are held, phase
// 1's hits counted, or 4·target attempts are made, and holds the edges one
// loop over the substream seeded seed would: attempt a reads draws 2a and
// 2a+1, an edge counts at its first attempt, and the loop stops at the
// attempt reaching target. The attempts go in rounds of the deficit, from
// the second on scaled by the last round's attempts per new edge, each cut
// into one run per lane; trim undoes the last round's overshoot.
func chungLu(seed int64, excess []float64, hits [][]uint64, target, lanes int) *edgeTable {
	t := newEdgeTable(target)
	t.add(hits, lanes)
	cdf, total := make([]float64, len(excess)), 0.0
	for i, e := range excess {
		total += e
		cdf[i] = total
	}
	if total == 0 {
		return t
	}
	g := newGuide(cdf)
	var keys []uint64
	for done, size, yield := 0, 0, 0; t.held < target && done < 4*target; done += size {
		need := target - t.held
		size = min(4*target-done, 1<<31, max(need, need*size/max(yield, 1)+need/8))
		runs := make([][]uint64, laneCount(lanes, size, laneWork))
		keys = slices.Grow(keys[:0], size)[:size]
		pool.ForChunks(len(runs), len(runs), func(k int) {
			lo := k * size / len(runs)
			runs[k] = keys[lo : (k+1)*size/len(runs)]
			s := drawsFrom(seed, 2*(done+lo))
			for a := range runs[k] {
				u, v := g.search(s.Float64()), g.search(s.Float64())
				if runs[k][a] = uint64(min(u, v))<<32 | uint64(max(u, v)); u == v {
					runs[k][a] = 0
				}
			}
		})
		if yield = t.add(runs, len(runs)); t.held > target {
			t.trim(size, need)
		}
	}
	return t
}

// edgeTable holds undirected edges as keys u<<32|v, u < v (0: an empty
// slot), in 2^bits linear-probing tables sized for a core's L2, its parts.
// A key's Fibonacci hash picks its part by its top bits and its home slot by
// the next 32. Part p's keys of the last add are keys[start[p]:start[p+1]],
// each with its index in the runs in at, the first news[p] of them new.
type edgeTable struct {
	parts [][]uint64
	fill  []int
	bits  int
	size  int // a part's slots until it grows
	held  int
	keys  []uint64
	at    []uint32
	start []int64
	news  []int
}

const fib, gone = 0x9e3779b97f4a7c15, 1<<64 - 1 // gone marks a key trim took out

// newEdgeTable sizes its parts for keys keys, at most 2¹⁴ a part: half full,
// a part's table is 256 KB.
func newEdgeTable(keys int) *edgeTable {
	b := bits.Len(uint(keys >> 14))
	return &edgeTable{parts: make([][]uint64, 1<<b), fill: make([]int, 1<<b), news: make([]int, 1<<b), bits: b, size: 2*keys>>b + 64}
}

// slot returns where key is in tab, or the empty slot it would take.
func (t *edgeTable) slot(tab []uint64, key uint64) int {
	i := int(key * fib << t.bits >> 32 * uint64(len(tab)) >> 32)
	for tab[i] != key && tab[i] != 0 {
		if i++; i == len(tab) {
			i = 0
		}
	}
	return i
}

// add puts the runs' keys (0: none) into the table and returns how many were
// new: a counting scatter moves them to their parts, in run order, and each
// part takes its own in that order on some lane.
func (t *edgeTable) add(runs [][]uint64, lanes int) int {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	t.keys, t.at = slices.Grow(t.keys[:0], n)[:n], slices.Grow(t.at[:0], n)[:n]
	t.start = counted(len(runs), len(t.parts), func(q, pass int, next []int64) {
		base := 0
		for _, run := range runs[:q] {
			base += len(run)
		}
		for a, key := range runs[q] {
			if c := &next[key*fib>>(64-t.bits)]; key != 0 {
				if pass == 1 {
					t.keys[*c], t.at[*c] = key, uint32(base+a)
				}
				*c++
			}
		}
	})
	pool.ForChunks(len(t.parts), lanes, func(p int) {
		tab, fill, w := t.parts[p], t.fill[p], t.start[p]
		if tab == nil { // allocated, and so first touched, on the lane that fills it
			tab = make([]uint64, t.size)
		}
		for j := t.start[p]; j < t.start[p+1]; j++ {
			if i := t.slot(tab, t.keys[j]); tab[i] == 0 {
				tab[i], t.keys[w], t.at[w] = t.keys[j], t.keys[j], t.at[j]
				w++
				if fill++; 4*fill > 3*len(tab) {
					tab = t.grow(tab)
				}
			}
		}
		t.parts[p], t.fill[p], t.news[p] = tab, fill, int(w-t.start[p])
	})
	n = t.held
	for _, c := range t.news {
		t.held += c
	}
	return t.held - n
}

// grow returns tab's keys in a table twice its size.
func (t *edgeTable) grow(tab []uint64) []uint64 {
	big := make([]uint64, 2*len(tab))
	for _, key := range tab {
		if key != 0 {
			big[t.slot(big, key)] = key
		}
	}
	return big
}

// trim takes out the keys the last add, a round of size attempts, found new
// after its k-th in attempt order, which the loop stops at: the least
// attempt with k new keys at or before it, by binary search over each
// part's ordered attempts.
func (t *edgeTable) trim(size, k int) {
	news := func(p int) []uint32 { return t.at[t.start[p] : int(t.start[p])+t.news[p]] }
	stop := uint32(sort.Search(size, func(a int) bool {
		c := 0
		for p := range t.parts {
			i, _ := slices.BinarySearch(news(p), uint32(a)+1)
			c += i
		}
		return c >= k
	}))
	for p, tab := range t.parts {
		for j, a := range news(p) {
			if a > stop {
				tab[t.slot(tab, t.keys[int(t.start[p])+j])] = gone
				t.held--
			}
		}
	}
}

// counted runs a counting sort's passes on lanes lanes: each(k, 0, next)
// counts lane k's items into next[b] for their bucket b, and each(k, 1,
// next) puts each at next[b], advancing it. In between, the counts become
// each lane's first slot in every bucket, the lanes in order. It returns
// where each bucket starts, and last the total.
func counted(lanes, buckets int, each func(k, pass int, next []int64)) []int64 {
	next, start := make([][]int64, lanes), make([]int64, buckets+1)
	for k := range next {
		next[k] = make([]int64, buckets)
	}
	for pass := range 2 {
		pool.ForChunks(lanes, lanes, func(k int) { each(k, pass, next[k]) })
		for b := 0; pass == 0 && b < buckets; b++ {
			start[b+1] = start[b]
			for _, c := range next {
				c[b], start[b+1] = start[b+1], start[b+1]+c[b]
			}
		}
	}
	return start
}

// toCSR builds both directions of every held edge, each lane placing a
// share of the parts, which leaves the rows unsorted. The graph is
// symmetric, so its transpose is the same graph, and lanes placing shares of
// the rows in order sort every row: the CSR depends on the edge set alone.
func (t *edgeTable) toCSR(n, lanes int) *sparse.CSR {
	lanes = laneCount(lanes, len(t.parts), 1)
	col := make([]int32, 2*t.held)
	ptr := counted(lanes, n, func(k, pass int, next []int64) {
		for _, tab := range t.parts[k*len(t.parts)/lanes : (k+1)*len(t.parts)/lanes] {
			for _, key := range tab {
				if u, v := key>>32, key&(1<<32-1); key != 0 && key != gone {
					if pass == 1 {
						col[next[u]], col[next[v]] = int32(v), int32(u)
					}
					next[u]++
					next[v]++
				}
			}
		}
	})
	m := &sparse.CSR{Rows: n, Cols: n, RowPtr: ptr, ColIdx: make([]int32, len(col))}
	counted(lanes, n, func(k, pass int, next []int64) {
		lo := sort.Search(n, func(r int) bool { return ptr[r] >= ptr[n]*int64(k)/int64(lanes) })
		hi := sort.Search(n, func(r int) bool { return ptr[r] >= ptr[n]*int64(k+1)/int64(lanes) })
		for r := lo; r < hi; r++ {
			for _, c := range col[ptr[r]:ptr[r+1]] {
				if pass == 1 {
					m.ColIdx[next[c]] = int32(r)
				}
				next[c]++
			}
		}
	})
	return m
}

// Generate builds a full dataset: BTER structure, homophilous labels, and
// class-informative features. When phantom is true, features and labels are
// omitted (structure-only, for timing/memory experiments) and only FeatDim
// and Classes metadata are set.
func Generate(name string, cfg BTERConfig, featDim, classes int, phantom bool) *graph.Graph {
	return generate(name, cfg, featDim, classes, phantom, 0)
}

// generate is Generate on the given pool lane count (0: as many as pay). The
// labels' and features' draws need the vertex count alone, so they run
// beside BTER's phase 2.
func generate(name string, cfg BTERConfig, featDim, classes int, phantom bool, lanes int) *graph.Graph {
	if featDim <= 0 || classes <= 0 {
		panic(fmt.Sprintf("gen: featDim %d / classes %d must be positive", featDim, classes))
	}
	var d classDraws
	var side func()
	if !phantom {
		side = func() {
			d = drawClasses(cfg.N, featDim, classes, cfg.FeatureNoise, rand.New(rand.NewSource(int64(cfg.Seed)+1)))
		}
	}
	adj := bter(cfg, lanes, side)
	g := &graph.Graph{Name: name, Adj: adj, FeatDim: featDim, Classes: classes}
	if !phantom {
		g.Labels, g.Features = d.finish(adj, lanes)
		g.Split(0.6, 0.2, cfg.Seed+2)
	}
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("gen: generated invalid graph: %v", err))
	}
	return g
}
