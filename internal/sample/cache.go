package sample

import (
	"fmt"
	"sort"

	"mggcn/internal/tensor"
)

// FeatureCache is a device's degree-ordered static feature cache (the
// CaPGNN policy): the frac·N highest-degree vertices' feature rows, copied
// once before training into a device-resident slab. Sampled frontiers are
// degree-biased — a uniformly sampled edge lands on a vertex with
// probability proportional to its degree — so a small top-degree slab
// absorbs most gather traffic. The cache is static: contents never change
// during training, which keeps parallel gathers read-only and replayable.
type FeatureCache struct {
	// Slab holds the cached rows in degree order (hottest first); views of
	// it are registered with the sanitizer by the trainer that owns it.
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
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if degrees[a] != degrees[b] {
			return degrees[a] > degrees[b]
		}
		return a < b
	})
	c := &FeatureCache{Pos: make([]int32, n)}
	for i := range c.Pos {
		c.Pos[i] = -1
	}
	var total, cached int64
	for _, d := range degrees {
		total += d
	}
	c.Slab = tensor.NewDense(rows, features.Cols)
	for i := 0; i < rows; i++ {
		v := order[i]
		c.Pos[v] = int32(i)
		cached += degrees[v]
		copy(c.Slab.Row(i), features.Row(int(v)))
	}
	if total > 0 {
		c.MassFraction = float64(cached) / float64(total)
	}
	return c
}

// Gather materializes the feature rows of verts into dst (len(verts) x d):
// cached vertices copy from the slab, the rest from features (the
// host-resident store). Returns the hit and miss row counts for byte
// accounting. The result is bit-identical to gathering everything from
// features — the cache is a verbatim copy — which the property tests pin.
func (c *FeatureCache) Gather(dst, features *tensor.Dense, verts []int32) (hit, miss int) {
	if dst.Rows != len(verts) || dst.Cols != features.Cols {
		panic(fmt.Sprintf("sample: Gather %d verts into %dx%d (features %dx%d)",
			len(verts), dst.Rows, dst.Cols, features.Rows, features.Cols))
	}
	for i, v := range verts {
		if p := c.Pos[v]; p >= 0 {
			hit++
			copy(dst.Row(i), c.Slab.Row(int(p)))
		} else {
			miss++
			copy(dst.Row(i), features.Row(int(v)))
		}
	}
	return hit, miss
}

// CachedRows returns the number of rows the slab holds.
func (c *FeatureCache) CachedRows() int { return c.Slab.Rows }
