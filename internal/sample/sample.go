// Package sample implements mini-batch neighborhood sampling — the
// alternative to full-batch training that the paper's introduction argues
// against — as the parts internal/core's sampled trainer is built from:
// the deterministic epoch plan (PlanEpoch), the fanout block sampler
// (Sampler, BuildBlocks) with its provable frontier bounds (FrontierCaps),
// and the degree-ordered feature cache (FeatureCache). It also quantifies the
// introduction's argument: k-hop frontiers explode to most of the graph
// within 2-3 hops on dense graphs (KHopReach), and even fanout-limited
// GraphSAGE-style blocks touch more edges per epoch than one full-batch pass
// (the explosion experiment counts them).
package sample

import (
	"fmt"

	"mggcn/internal/sparse"
)

// KHopReach returns, for hop h = 0..hops, the cumulative number of
// vertices reachable within h hops of the seed set (hop 0 = the seeds).
func KHopReach(adj *sparse.CSR, seeds []int32, hops int) []int {
	visited := make([]bool, adj.Rows)
	frontier := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= adj.Rows {
			panic(fmt.Sprintf("sample: seed %d outside graph of %d", s, adj.Rows))
		}
		if !visited[s] {
			visited[s] = true
			frontier = append(frontier, s)
		}
	}
	counts := []int{len(frontier)}
	reached := len(frontier)
	for h := 0; h < hops; h++ {
		var next []int32
		for _, u := range frontier {
			cols, _ := adj.Row(int(u))
			for _, v := range cols {
				if !visited[v] {
					visited[v] = true
					reached++
					next = append(next, v)
				}
			}
		}
		counts = append(counts, reached)
		frontier = next
	}
	return counts
}
