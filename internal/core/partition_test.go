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
		norm = sparse.FromCoo(norm.Rows, norm.Cols, entries, norm.Vals != nil)
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

// expanded returns tile t with a value per entry, the one its scale gives
// it (nil and unscaled tiles as they are): how the oracle's tiles, cut from
// NormalizeInDegree, hold them.
func expanded(t *sparse.CSR) *sparse.CSR {
	if t == nil || t.RowScale == nil && t.ColScale == nil {
		return t
	}
	e := &sparse.CSR{Rows: t.Rows, Cols: t.Cols, RowPtr: t.RowPtr, ColIdx: t.ColIdx, Vals: make([]float32, t.NNZ())}
	for i := 0; i < t.Rows; i++ {
		for k := t.RowPtr[i]; k < t.RowPtr[i+1]; k++ {
			if t.RowScale != nil {
				e.Vals[k] = t.RowScale[i]
			} else {
				e.Vals[k] = t.ColScale[t.ColIdx[k]]
			}
		}
	}
	return e
}

// TestPartitionTilesMatchOracle holds every stored tile, its scale expanded,
// to the oracle's, and the forms to the design: each Âᵀ tile scales its rows
// and each Â tile its columns by 1/in-degree, and an Â tile shares its Âᵀ
// twin's structure exactly when the two are the same — everywhere on an
// undirected graph, not everywhere on a directed one.
func TestPartitionTilesMatchOracle(t *testing.T) {
	// A directed graph with isolated vertices and empty tiles (BTER's edges
	// from vertices 20 on dropped, its every fourth vertex cut off) beside
	// an undirected BTER graph.
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
		{Name: "directed", Adj: sparse.FromCoo(isolated.Rows, isolated.Rows, entries, false), FeatDim: 4, Classes: 2},
	}
	orderings := []Ordering{OrderingNatural, OrderingRandom, OrderingDegreeSorted, OrderingBFS, OrderingBlockCyclic}
	for gi, g := range graphs {
		var shared, stored int
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
							for j, at := range ds.atTiles {
								a := ds.aTiles[j]
								if !reflect.DeepEqual(expanded(at), want[d][0][j]) || !reflect.DeepEqual(expanded(a), want[d][1][j]) {
									t.Fatalf("%s: device %d's tiles (stage %d) differ from the oracle's", name, d, j)
								}
								if at == nil {
									continue
								}
								if at.Vals != nil || at.RowScale == nil || a.Vals != nil || a.ColScale == nil {
									t.Fatalf("%s: device %d's tiles (stage %d) do not hold Â as a scale", name, d, j)
								}
								same := reflect.DeepEqual(at.RowPtr, a.RowPtr) && reflect.DeepEqual(at.ColIdx, a.ColIdx)
								if share := &at.RowPtr[0] == &a.RowPtr[0]; share != same {
									t.Fatalf("%s: device %d stage %d: Â tile shares its twin's structure %v, same structure %v", name, d, j, share, same)
								} else if share {
									shared++
								}
								stored++
							}
						}
					}
				}
			}
		}
		if undirected := gi == 0; (shared == stored) != undirected {
			t.Errorf("%s: %d of %d stored Â tiles share their twin's structure", g.Name, shared, stored)
		}
	}
}
