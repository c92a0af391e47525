package core

import (
	"fmt"

	"mggcn/internal/graph"
	"mggcn/internal/part"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// deviceState is everything resident on one simulated GPU: its tile row of
// the (optionally permuted) normalized adjacency in both orientations, its
// feature/label block, and its buffer set. On the host the two orientations
// share each symmetric tile's structure and hold Â's values as slices of one
// per-vertex scale; adjBytes charges the device for both, per nonzero.
type deviceState struct {
	block  int // owned block index in the partition vector
	lo, hi int // owned vertex range [lo, hi)
	rows   int
	// Tile semantics depend on the strategy:
	//   broadcast-staged (1D-row, 1.5D): atTiles[j] = Âᵀ[lo:hi, p(j):p(j+1)] —
	//     my tile row, only the stages my replica group runs (others nil; at
	//     c = 1 that is every stage).
	//   reduce-staged (1D-col): atTiles[i] = Âᵀ[p(i):p(i+1), lo:hi] — my tile
	//     column.
	atTiles  []*sparse.CSR
	aTiles   []*sparse.CSR // same layout for Â (backward pass)
	x        *tensor.Dense // local input features (a phantom view in phantom mode)
	labels   []int32
	mask     []bool // training mask shard
	testMask []bool // held-out mask shard for generalization metrics
	bufs     *DeviceBuffers
	adjBytes int64
}

// partitioned holds the distributed dataset: partition vector, permutation
// (nil when disabled), and per-device states.
type partitioned struct {
	strategy Strategy
	vec      part.Vector
	blocks   int // partition parts: P/c (P for the 1D strategies, P/2 for 1.5D)
	perm     []int32
	devs     []*deviceState
}

// partitionGraph normalizes, optionally permutes, and partitions the graph
// across machine's devices per the strategy (§4.1), charging adjacency and
// feature storage to each device's memory pool. Device d owns block
// d mod (P/c) in replica group d div (P/c) — at c = 2 (1.5D) every block is
// stored twice, the strategy's 2x feature memory.
func partitionGraph(g *graph.Graph, machine *sim.Machine, strategy Strategy, ordering Ordering, balanced bool, permSeed uint64) (*partitioned, error) {
	n := g.N()
	c := strategy.replicationFactor()
	blocks := machine.P / c
	p := &partitioned{strategy: strategy, blocks: blocks}

	norm := sparse.FactoredInDegree(g.Adj)
	labels, trainMask, testMask, feats := g.Labels, g.TrainMask, g.TestMask, g.Features
	if g.IsPhantom() {
		feats = tensor.NewPhantom(n, g.FeatDim)
	}
	p.perm = orderingPerm(g, norm, ordering, permSeed, blocks)
	if p.perm != nil {
		labels, trainMask, testMask = sparse.Permuted(labels, p.perm), sparse.Permuted(trainMask, p.perm), sparse.Permuted(testMask, p.perm)
		if !feats.IsPhantom() {
			feats = permuteRows(feats, p.perm)
		}
	}

	if balanced {
		// Cut the (possibly reordered) vertex sequence at near-equal total
		// degree instead of near-equal vertex counts: the per-device SpMM
		// work is the nonzeros of its tile row in both orientations, Â's row
		// and column counts of the vertex it relabels.
		weights := make([]int64, n)
		for u := range weights {
			weights[u] = norm.RowNNZ(u)
		}
		for _, w := range norm.ColIdx {
			weights[w]++
		}
		if p.perm != nil {
			weights = sparse.Permuted(weights, p.perm)
		}
		p.vec = part.BalancedVector(weights, blocks)
	} else {
		p.vec = part.Uniform(n, blocks)
	}
	// Every strategy stores each tile of the grid on exactly one device: the
	// 1D strategies a tile row or column per device, 1.5D's replica groups
	// split each tile row's stages.
	at, am := sparse.PermutedTiles(norm, p.perm, p.vec)

	for d := 0; d < machine.P; d++ {
		block, group := d%blocks, d/blocks
		lo, hi := p.vec.Bounds(block)
		ds := &deviceState{block: block, lo: lo, hi: hi, rows: hi - lo}
		for j := 0; j < blocks; j++ {
			var atT, aT *sparse.CSR // nil: another replica group's stage, not stored here
			switch {
			case strategy.reduceStaged():
				atT, aT = at[j][block], am[j][block]
			case j%c == group:
				atT, aT = at[block][j], am[block][j]
			}
			ds.atTiles = append(ds.atTiles, atT)
			ds.aTiles = append(ds.aTiles, aT)
			if atT != nil {
				ds.adjBytes += atT.Bytes() + aT.Bytes()
			}
		}
		pool := machine.Pools[d]
		if err := pool.Alloc("adjacency", ds.adjBytes); err != nil {
			return nil, fmt.Errorf("core: adjacency does not fit: %w", err)
		}
		if err := pool.Alloc("features", int64(ds.rows)*int64(g.FeatDim)*4); err != nil {
			return nil, fmt.Errorf("core: features do not fit: %w", err)
		}
		ds.x = feats.RowSlice(lo, hi)
		if labels != nil {
			ds.labels = labels[lo:hi]
			if trainMask != nil {
				ds.mask = trainMask[lo:hi]
			}
			if testMask != nil {
				ds.testMask = testMask[lo:hi]
			}
		}
		p.devs = append(p.devs, ds)
	}
	return p, nil
}

// orderingPerm resolves the configured vertex ordering to a permutation
// (nil = keep the natural order).
func orderingPerm(g *graph.Graph, norm *sparse.CSR, ordering Ordering, seed uint64, blocks int) []int32 {
	switch ordering {
	case OrderingNatural:
		return nil
	case OrderingRandom:
		return part.RandomPerm(g.N(), seed)
	case OrderingDegreeSorted:
		return part.DegreeSortPerm(norm)
	case OrderingBFS:
		return part.BFSPerm(norm, int(seed)%g.N())
	case OrderingBlockCyclic:
		return part.BlockCyclicPerm(g.N(), blocks)
	default:
		panic(fmt.Sprintf("core: unknown ordering %d", int(ordering)))
	}
}

func permuteRows(x *tensor.Dense, perm []int32) *tensor.Dense {
	out := tensor.NewDense(x.Rows, x.Cols)
	for old := 0; old < x.Rows; old++ {
		copy(out.Row(int(perm[old])), x.Row(old))
	}
	return out
}

// MaxTileRows returns the largest partition block — the row count the
// broadcast slabs are sized for.
func (p *partitioned) MaxTileRows() int {
	m := 0
	for i := 0; i < p.vec.Parts(); i++ {
		if s := p.vec.Size(i); s > m {
			m = s
		}
	}
	return m
}

// DeviceRows returns the number of vertices device d owns — the row count
// its HW/AHW slabs are sized for.
func (p *partitioned) DeviceRows(d int) int { return p.devs[d].rows }

// AdjacencyBytes returns the bytes device d's resident adjacency tiles
// occupy (both orientations).
func (p *partitioned) AdjacencyBytes(d int) int64 { return p.devs[d].adjBytes }

// inputView returns device dev's resident input block of layer l of a model
// with the given layer widths: its feature shard for layer 0 or the previous
// layer's output buffer.
func (p *partitioned) inputView(dev, l int, dims []int) *tensor.Dense {
	ds := p.devs[dev]
	if l == 0 {
		return ds.x
	}
	return ds.bufs.AHW[l-1].View(ds.rows, dims[l])
}

// hwView returns the per-device views of the shared HW slab at width cols.
func (p *partitioned) hwView(cols int) func(dev int) *tensor.Dense {
	return func(dev int) *tensor.Dense { return p.devs[dev].bufs.HW.View(p.devs[dev].rows, cols) }
}

// ahwView returns the per-device views of layer l's private buffer at width
// cols.
func (p *partitioned) ahwView(l, cols int) func(dev int) *tensor.Dense {
	return func(dev int) *tensor.Dense { return p.devs[dev].bufs.AHW[l].View(p.devs[dev].rows, cols) }
}
