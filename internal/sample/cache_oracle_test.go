package sample

import (
	"fmt"
	"testing"

	"mggcn/internal/rng"
	"mggcn/internal/tensor"
)

// slabGather is FeatureCache.Gather as it was while the cache held a
// materialised slab, kept as the oracle for Count and Gather: the slab is
// built the way NewFeatureCache copied it (row Pos[v] holds v's features),
// then cached vertices copy from it and the rest from features.
func slabGather(c *FeatureCache, dst, features *tensor.Dense, verts []int32) (hit, miss int) {
	slab := tensor.NewDense(c.Slab.Rows, features.Cols)
	for v, p := range c.Pos {
		if p >= 0 {
			copy(slab.Row(int(p)), features.Row(v))
		}
	}
	for i, v := range verts {
		if p := c.Pos[v]; p >= 0 {
			hit++
			copy(dst.Row(i), slab.Row(int(p)))
		} else {
			miss++
			copy(dst.Row(i), features.Row(int(v)))
		}
	}
	return hit, miss
}

// TestCacheCountMatchesSlabGather: on random degree profiles and frontiers,
// Count reports the slab-copying gather's hit and miss rows at every cache
// fraction, Gather returns the same counts, and both gathers leave the same
// bits in dst.
func TestCacheCountMatchesSlabGather(t *testing.T) {
	r := rng.NewRNG(31)
	for trial := 0; trial < 8; trial++ {
		n, d := 20+r.Intn(300), 1+r.Intn(9)
		feat := tensor.NewDense(n, d)
		for i := range feat.Data {
			feat.Data[i] = float32(r.Uint64()%1000) / 7
		}
		degrees := make([]int64, n)
		for i := range degrees {
			degrees[i] = int64(r.Intn(40)) // ties included: the selection breaks them by id
		}
		verts := make([]int32, r.Intn(2*n))
		for i := range verts {
			verts[i] = int32(r.Intn(n))
		}
		for _, frac := range []float64{0, 0.1, 0.5, 1} {
			name := fmt.Sprintf("trial %d n=%d frac %v", trial, n, frac)
			c := NewFeatureCache(feat, degrees, frac)
			if !c.Slab.IsPhantom() || c.Slab.Rows != int(frac*float64(n)) || c.Slab.Cols != d {
				t.Fatalf("%s: slab %dx%d phantom=%t", name, c.Slab.Rows, c.Slab.Cols, c.Slab.IsPhantom())
			}
			want := tensor.NewDense(len(verts), d)
			wantHit, wantMiss := slabGather(c, want, feat, verts)
			if hit, miss := c.Count(verts); hit != wantHit || miss != wantMiss {
				t.Fatalf("%s: Count %d/%d, slab gather %d/%d", name, hit, miss, wantHit, wantMiss)
			}
			got := tensor.NewDense(len(verts), d)
			if hit, miss := c.Gather(got, feat, verts); hit != wantHit || miss != wantMiss {
				t.Fatalf("%s: Gather counted %d/%d, slab gather %d/%d", name, hit, miss, wantHit, wantMiss)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s: Gather diverges from the slab gather at %d", name, i)
				}
			}
		}
	}
}
