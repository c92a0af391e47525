// Package graph defines the labeled-graph dataset type consumed by GCN
// training: a CSR adjacency, optional node features, labels, and
// train/val/test splits, plus degree statistics used by the load-balance
// experiments.
package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"mggcn/internal/rng"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// Graph is a node-labeled graph dataset. Adj holds the directed adjacency
// with Adj[u] containing u's out-edges (an edge u->v is a stored entry at
// row u, column v). Features may be nil in phantom (structure-only) mode.
type Graph struct {
	Name     string
	Adj      *sparse.CSR
	Features *tensor.Dense // n x d, nil in phantom mode
	Labels   []int32       // length n, class per vertex; nil in phantom mode
	Classes  int
	FeatDim  int // feature width; authoritative even when Features is nil

	// TrainMask/ValMask/TestMask partition the vertices for the
	// semi-supervised node prediction task. Nil masks mean "all train".
	TrainMask, ValMask, TestMask []bool
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.Adj.Rows }

// M returns the number of directed edges (stored adjacency entries).
func (g *Graph) M() int64 { return g.Adj.NNZ() }

// AvgDegree returns M/N.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(g.M()) / float64(g.N())
}

// Validate checks the dataset's structural invariants.
func (g *Graph) Validate() error {
	if g.Adj == nil {
		return fmt.Errorf("graph %q: nil adjacency", g.Name)
	}
	if g.Adj.Rows != g.Adj.Cols {
		return fmt.Errorf("graph %q: adjacency not square (%dx%d)", g.Name, g.Adj.Rows, g.Adj.Cols)
	}
	if err := g.Adj.Validate(); err != nil {
		return fmt.Errorf("graph %q: %w", g.Name, err)
	}
	if g.Features != nil {
		if g.Features.Rows != g.N() {
			return fmt.Errorf("graph %q: %d feature rows for %d vertices", g.Name, g.Features.Rows, g.N())
		}
		if g.Features.Cols != g.FeatDim {
			return fmt.Errorf("graph %q: feature width %d, FeatDim %d", g.Name, g.Features.Cols, g.FeatDim)
		}
	}
	if g.Labels != nil {
		if len(g.Labels) != g.N() {
			return fmt.Errorf("graph %q: %d labels for %d vertices", g.Name, len(g.Labels), g.N())
		}
		for v, l := range g.Labels {
			if int(l) < 0 || int(l) >= g.Classes {
				return fmt.Errorf("graph %q: vertex %d label %d outside %d classes", g.Name, v, l, g.Classes)
			}
		}
	}
	for _, m := range [][]bool{g.TrainMask, g.ValMask, g.TestMask} {
		if m != nil && len(m) != g.N() {
			return fmt.Errorf("graph %q: mask length %d for %d vertices", g.Name, len(m), g.N())
		}
	}
	return nil
}

// IsPhantom reports whether the graph carries structure but no feature or
// label payload (cost-model-only mode).
func (g *Graph) IsPhantom() bool { return g.Features == nil }

// NormalizedAdj returns Â per eq. (2) — entries of column v divided by v's
// in-degree — so that Âᵀ H averages in-neighbor features.
func (g *Graph) NormalizedAdj() *sparse.CSR { return sparse.NormalizeInDegree(g.Adj) }

// InDegrees returns the in-degree of every vertex.
func (g *Graph) InDegrees() []int64 {
	d := make([]int64, g.N())
	for _, c := range g.Adj.ColIdx {
		d[c]++
	}
	return d
}

// Split assigns deterministic train/val/test masks with the given fractions
// (test gets the remainder). Fractions must be non-negative and sum to <= 1.
func (g *Graph) Split(trainFrac, valFrac float64, seed uint64) {
	if trainFrac < 0 || valFrac < 0 || trainFrac+valFrac > 1 {
		panic(fmt.Sprintf("graph: bad split fractions %g/%g", trainFrac, valFrac))
	}
	n := g.N()
	g.TrainMask = make([]bool, n)
	g.ValMask = make([]bool, n)
	g.TestMask = make([]bool, n)
	// Deterministic pseudo-shuffle: a vertex's rank among splitmix64 hashes
	// of the indices (mix64 is a bijection, so they are distinct) picks its
	// mask. A counting pass over the keys' top bits finds the buckets that
	// hold ranks nTrain and nTrain+nVal; only their keys need ranking within
	// the bucket, and any other key's bucket start stands for its rank.
	nTrain := int(trainFrac * float64(n))
	nVal := int(valFrac * float64(n))
	shift := 64 - bits.Len(uint(n))
	keys, start := make([]uint64, n), make([]int, 1<<(64-shift)+1)
	for v := range keys {
		keys[v] = mix64(uint64(v) + seed)
		start[keys[v]>>shift+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	holding := func(rank int) uint64 { b, _ := slices.BinarySearch(start, rank+1); return uint64(b - 1) }
	bt, bv := holding(nTrain), holding(nTrain+nVal)
	for v, k := range keys {
		b := k >> shift
		r := start[b]
		if b == bt || b == bv { // its rank within the bucket: a bucket holds about one key
			for _, o := range keys {
				if o >= b<<shift && o < k {
					r++
				}
			}
		}
		switch {
		case r < nTrain:
			g.TrainMask[v] = true
		case r < nTrain+nVal:
			g.ValMask[v] = true
		default:
			g.TestMask[v] = true
		}
	}
}

// mix64 is the splitmix64 finalizer, used for cheap deterministic hashing.
func mix64(x uint64) uint64 { return rng.Mix(x + rng.Gamma) }
