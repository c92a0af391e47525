package sample

import (
	"cmp"
	"fmt"
	"slices"

	"mggcn/internal/tensor"
)

// FeatureCache is a device's degree-ordered static feature cache (the
// CaPGNN policy): the frac·N highest-degree vertices' feature rows, held in a
// device-resident slab. Sampled frontiers are degree-biased — a uniformly
// sampled edge lands on a vertex with probability proportional to its
// degree — so a small top-degree slab absorbs most gather traffic. The cache
// is static: contents never change during training. The slab is modelled,
// not materialised: a cached row is a verbatim copy of the host store's, so
// what the cache decides on the host is which rows hit (Count).
type FeatureCache struct {
	// Slab is the cached rows' shape (degree order, hottest first) without
	// storage; the trainer that owns the cache registers it.
	Slab *tensor.Dense
	// Pos maps graph vertex -> slab row, -1 when uncached.
	Pos []int32
	// MassFraction is the fraction of total degree mass the cached
	// vertices cover — the analytic expected hit rate for degree-biased
	// frontiers, used by the record-time cost model.
	MassFraction float64
}

// NewFeatureCache builds a cache holding the top frac (0..1) of vertices by
// degree (ties broken by vertex id, so the selection is deterministic).
func NewFeatureCache(features *tensor.Dense, degrees []int64, frac float64) *FeatureCache {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("sample: cache fraction %v outside [0,1]", frac))
	}
	n := len(degrees)
	if features.Rows != n {
		panic(fmt.Sprintf("sample: %d feature rows for %d degrees", features.Rows, n))
	}
	rows := int(frac * float64(n))
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(degrees[b], degrees[a]), cmp.Compare(a, b))
	})
	c := &FeatureCache{Slab: tensor.NewPhantom(rows, features.Cols), Pos: make([]int32, n)}
	for i := range c.Pos {
		c.Pos[i] = -1
	}
	var total, cached int64
	for _, d := range degrees {
		total += d
	}
	for i, v := range order[:rows] {
		c.Pos[v] = int32(i)
		cached += degrees[v]
	}
	if total > 0 {
		c.MassFraction = float64(cached) / float64(total)
	}
	return c
}

// Count returns how many of verts the cache holds (hit) and how many it does
// not (miss): the extract stage's byte accounting.
func (c *FeatureCache) Count(verts []int32) (hit, miss int) {
	for _, v := range verts {
		if c.Pos[v] >= 0 {
			hit++
		}
	}
	return hit, len(verts) - hit
}

// Gather materializes the feature rows of verts into dst (len(verts) x d),
// every row copied from features (the host-resident store), and returns
// Count(verts).
func (c *FeatureCache) Gather(dst, features *tensor.Dense, verts []int32) (hit, miss int) {
	if dst.Rows != len(verts) || dst.Cols != features.Cols {
		panic(fmt.Sprintf("sample: Gather %d verts into %dx%d (features %dx%d)",
			len(verts), dst.Rows, dst.Cols, features.Rows, features.Cols))
	}
	for i, v := range verts {
		copy(dst.Row(i), features.Row(int(v)))
	}
	return c.Count(verts)
}
