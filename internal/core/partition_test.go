package core

import (
	"fmt"
	"reflect"
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/part"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
)

// oraclePartition is partitionGraph's tiling the long way round: Â permuted
// whole, transposed whole, the cut placed on their row counts, and every
// stored tile cut by SubMatrix. It returns the vector and, per device, the
// Âᵀ and Â tiles the strategy stores there (nil where it stores none).
func oraclePartition(g *graph.Graph, p int, strategy Strategy, ordering Ordering, balanced bool, seed uint64) (part.Vector, [][2][]*sparse.CSR) {
	c := strategy.replicationFactor()
	blocks := p / c
	norm := g.NormalizedAdj()
	if perm := orderingPerm(g, norm, ordering, seed, blocks); perm != nil {
		// P·Â·Pᵀ through FromCoo: entry (u, w) moves to (perm[u], perm[w]).
		var entries []sparse.Coo
		for u := 0; u < norm.Rows; u++ {
			cols, vals := norm.Row(u)
			for k, w := range cols {
				e := sparse.Coo{Row: perm[u], Col: perm[w]}
				if vals != nil {
					e.Val = vals[k]
				}
				entries = append(entries, e)
			}
		}
		norm = sparse.FromCoo(norm.Rows, norm.Cols, entries, norm.HasVals())
	}
	at := norm.Transpose()
	vec := part.Uniform(norm.Rows, blocks)
	if balanced {
		weights := make([]int64, norm.Rows)
		for v := range weights {
			weights[v] = norm.RowNNZ(v) + at.RowNNZ(v)
		}
		vec = part.BalancedVector(weights, blocks)
	}
	devs := make([][2][]*sparse.CSR, p)
	for d := range devs {
		block, group := d%blocks, d/blocks
		lo, hi := vec.Bounds(block)
		for j := 0; j < blocks; j++ {
			b0, b1 := vec.Bounds(j)
			var atT, aT *sparse.CSR
			switch {
			case strategy.reduceStaged():
				atT, aT = at.SubMatrix(b0, b1, lo, hi), norm.SubMatrix(b0, b1, lo, hi)
			case j%c == group:
				atT, aT = at.SubMatrix(lo, hi, b0, b1), norm.SubMatrix(lo, hi, b0, b1)
			}
			devs[d][0] = append(devs[d][0], atT)
			devs[d][1] = append(devs[d][1], aT)
		}
	}
	return vec, devs
}

func TestPartitionTilesMatchOracle(t *testing.T) {
	// A graph with isolated vertices and empty tiles beside a BTER graph.
	isolated := gen.BTER(gen.DefaultBTER(30, 3, 5))
	var entries []sparse.Coo
	for u := 0; u < isolated.Rows; u++ {
		cols, _ := isolated.Row(u)
		for _, w := range cols {
			if u%4 != 3 && w%4 != 3 && u < 20 {
				entries = append(entries, sparse.Coo{Row: int32(u), Col: w})
			}
		}
	}
	graphs := []*graph.Graph{
		testGraph(t),
		{Name: "isolated", Adj: sparse.FromCoo(isolated.Rows, isolated.Rows, entries, false), FeatDim: 4, Classes: 2},
	}
	orderings := []Ordering{OrderingNatural, OrderingRandom, OrderingDegreeSorted, OrderingBFS, OrderingBlockCyclic}
	for _, g := range graphs {
		for p := 1; p <= 8; p++ {
			for _, strategy := range Strategies() {
				if strategy.validate(p) != nil {
					continue
				}
				for _, ordering := range orderings {
					for _, balanced := range []bool{false, true} {
						name := fmt.Sprintf("%s P=%d %v %v balanced=%v", g.Name, p, strategy, ordering, balanced)
						got, err := partitionGraph(g, sim.NewMachine(sim.DGXA100(), p, 1), strategy, ordering, balanced, uint64(p))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						vec, want := oraclePartition(g, p, strategy, ordering, balanced, uint64(p))
						if !reflect.DeepEqual(got.vec, vec) {
							t.Fatalf("%s: vector %v, oracle %v", name, got.vec, vec)
						}
						for d, ds := range got.devs {
							if !reflect.DeepEqual(ds.atTiles, want[d][0]) || !reflect.DeepEqual(ds.aTiles, want[d][1]) {
								t.Fatalf("%s: device %d's tiles differ from the oracle's", name, d)
							}
						}
					}
				}
			}
		}
	}
}
