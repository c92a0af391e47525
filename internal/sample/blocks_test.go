package sample

import (
	"sync"
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/rng"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// starCSR returns a hub-dominated star: vertex 0 connects to every other
// vertex in both directions.
func starCSR(n int) *sparse.CSR {
	var entries []sparse.Coo
	for v := 1; v < n; v++ {
		entries = append(entries, sparse.Coo{Row: 0, Col: int32(v), Val: 1})
		entries = append(entries, sparse.Coo{Row: int32(v), Col: 0, Val: 1})
	}
	return sparse.FromCoo(n, n, entries, true)
}

// isolatedCSR returns n vertices with no edges at all.
func isolatedCSR(n int) *sparse.CSR {
	return sparse.FromCoo(n, n, nil, true)
}

func TestBuildBlocksEmptyFrontier(t *testing.T) {
	// A batch of isolated vertices: every frontier is just the batch
	// itself (self-loops only), and the blocks stay valid.
	adj := isolatedCSR(10)
	blocks := BuildBlocks(adj, []int32{2, 5}, []int{3, 3}, 1)
	for l, b := range blocks {
		if err := b.Adj.Validate(); err != nil {
			t.Fatalf("block %d: %v", l, err)
		}
		if len(b.Src) != 2 || len(b.Dst) != 2 {
			t.Fatalf("block %d frontier grew on an edgeless graph: %d/%d", l, len(b.Src), len(b.Dst))
		}
		if b.Adj.NNZ() != 2 { // one self-loop per destination
			t.Fatalf("block %d nnz %d", l, b.Adj.NNZ())
		}
	}
}

func TestBuildBlocksEmptyBatch(t *testing.T) {
	adj := starCSR(8)
	blocks := BuildBlocks(adj, nil, []int{2}, 1)
	if len(blocks) != 1 || blocks[0].Adj.Rows != 0 || blocks[0].Adj.Cols != 0 {
		t.Fatalf("empty batch produced blocks %+v", blocks[0].Adj)
	}
}

func TestBuildBlocksFanoutExceedsDegree(t *testing.T) {
	// Fanout far above every degree: sampling must take all neighbors
	// exactly once, never pad or duplicate.
	adj := starCSR(6) // leaves have degree 1, hub degree 5
	blocks := BuildBlocks(adj, []int32{1, 2}, []int{100}, 3)
	b := blocks[0]
	// Destinations {1,2}: each contributes a self-loop plus its single
	// neighbor (the hub) => nnz 4, sources {0,1,2}.
	if b.Adj.NNZ() != 4 {
		t.Fatalf("nnz %d, want 4", b.Adj.NNZ())
	}
	if len(b.Src) != 3 {
		t.Fatalf("sources %v", b.Src)
	}
}

func TestBuildBlocksDuplicateSeeds(t *testing.T) {
	adj := starCSR(8)
	dup := BuildBlocks(adj, []int32{3, 3, 3, 5}, []int{2, 2}, 9)
	ded := BuildBlocks(adj, []int32{3, 5}, []int{2, 2}, 9)
	if len(dup[1].Dst) != 2 {
		t.Fatalf("duplicate batch vertices not deduplicated: %v", dup[1].Dst)
	}
	if len(dup[1].Dst) != len(ded[1].Dst) {
		t.Fatalf("dedup mismatch: %v vs %v", dup[1].Dst, ded[1].Dst)
	}
}

func TestBuildBlocksHubDominated(t *testing.T) {
	// On a star, any leaf batch pulls in the hub at hop 1 and the hub's
	// sampled leaves at hop 2; frontier sizes must respect the fanout cap.
	adj := starCSR(1000)
	blocks := BuildBlocks(adj, []int32{7, 8, 9}, []int{4, 4}, 11)
	for l, b := range blocks {
		if err := b.Adj.Validate(); err != nil {
			t.Fatalf("block %d: %v", l, err)
		}
		// Each destination row holds at most 1 (self) + fanout entries.
		for r := 0; r < b.Adj.Rows; r++ {
			cols, _ := b.Adj.Row(r)
			if len(cols) > 5 {
				t.Fatalf("block %d row %d sampled %d > fanout+self", l, r, len(cols))
			}
		}
	}
	// Hop 1 from 3 leaves reaches exactly {7,8,9,hub}.
	if got := len(blocks[1].Src); got != 4 {
		t.Fatalf("hop-1 frontier %d, want 4", got)
	}
}

func TestBuildBlocksDeterministicAndSeedSensitive(t *testing.T) {
	adj := starCSR(200)
	batch := []int32{10, 20, 30}
	a := BuildBlocks(adj, batch, []int{3, 3}, 42)
	b := BuildBlocks(adj, batch, []int{3, 3}, 42)
	for l := range a {
		if a[l].Adj.NNZ() != b[l].Adj.NNZ() || len(a[l].Src) != len(b[l].Src) {
			t.Fatalf("same seed produced different blocks at layer %d", l)
		}
		for i := range a[l].Src {
			if a[l].Src[i] != b[l].Src[i] {
				t.Fatalf("same seed diverged at layer %d src %d", l, i)
			}
		}
	}
	c := BuildBlocks(adj, batch, []int{3, 3}, 43)
	same := true
	for l := range a {
		if len(a[l].Src) != len(c[l].Src) {
			same = false
			break
		}
		for i := range a[l].Src {
			if a[l].Src[i] != c[l].Src[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical hub samples (RNG not seed-sensitive)")
	}
}

// TestBuildBlocksParallelReplayable: per-sampler RNG means concurrent
// samplers reproduce the serial blocks exactly — the property the
// math/rand global state could not give.
func TestBuildBlocksParallelReplayable(t *testing.T) {
	adj := starCSR(500)
	batches := [][]int32{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}}
	serial := make([][]*Block, len(batches))
	for i, b := range batches {
		serial[i] = BuildBlocks(adj, b, []int{3, 3}, rng.SplitSeed(7, 0, i))
	}
	conc := make([][]*Block, len(batches))
	var wg sync.WaitGroup
	for i, b := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conc[i] = BuildBlocks(adj, b, []int{3, 3}, rng.SplitSeed(7, 0, i))
		}()
	}
	wg.Wait()
	for i := range batches {
		for l := range serial[i] {
			s, c := serial[i][l], conc[i][l]
			if s.Adj.NNZ() != c.Adj.NNZ() || len(s.Src) != len(c.Src) {
				t.Fatalf("batch %d layer %d: concurrent blocks diverge", i, l)
			}
			for j := range s.Src {
				if s.Src[j] != c.Src[j] {
					t.Fatalf("batch %d layer %d src %d: %d != %d", i, l, j, s.Src[j], c.Src[j])
				}
			}
		}
	}
}

// TestCacheGatherBitIdentical is the cached-vs-uncached property test: for
// every cache fraction, gathering through the cache must be bit-identical
// to gathering straight from the feature store.
func TestCacheGatherBitIdentical(t *testing.T) {
	const n, d = 64, 7
	r := rng.NewRNG(123)
	feat := tensor.NewDense(n, d)
	for i := range feat.Data {
		feat.Data[i] = float32(r.Uint64()%1000) / 31
	}
	degrees := make([]int64, n)
	for i := range degrees {
		degrees[i] = int64(r.Intn(50))
	}
	verts := make([]int32, 40)
	for i := range verts {
		verts[i] = int32(r.Intn(n))
	}
	want := tensor.NewDense(len(verts), d)
	for i, v := range verts {
		copy(want.Row(i), feat.Row(int(v)))
	}
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 1} {
		cache := NewFeatureCache(feat, degrees, frac)
		got := tensor.NewDense(len(verts), d)
		hit, miss := cache.Gather(got, feat, verts)
		if hit+miss != len(verts) {
			t.Fatalf("frac %v: hit %d + miss %d != %d", frac, hit, miss, len(verts))
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("frac %v: cached gather diverges at %d", frac, i)
			}
		}
	}
}

func TestCacheDegreeOrdered(t *testing.T) {
	// On a hub-dominated degree profile, a small cache must capture most
	// of the degree mass: the hub alone holds half of it here.
	const n = 100
	feat := tensor.NewDense(n, 3)
	degrees := make([]int64, n)
	degrees[17] = n - 1 // the hub
	for i := range degrees {
		if i != 17 {
			degrees[i] = 1
		}
	}
	cache := NewFeatureCache(feat, degrees, 0.01) // one row
	if cache.Slab.Rows != 1 || cache.Pos[17] != 0 {
		t.Fatalf("1%% cache skipped the hub: rows=%d pos[17]=%d", cache.Slab.Rows, cache.Pos[17])
	}
	if cache.MassFraction < 0.49 {
		t.Fatalf("hub cache mass fraction %v, want ~0.5", cache.MassFraction)
	}
	hit, miss := cache.Gather(tensor.NewDense(2, 3), feat, []int32{17, 3})
	if hit != 1 || miss != 1 {
		t.Fatalf("hit %d miss %d", hit, miss)
	}
}

func TestPlanEpochDeterministic(t *testing.T) {
	verts := make([]int32, 50)
	for i := range verts {
		verts[i] = int32(i)
	}
	a := PlanEpoch(verts, 8, 3, 2)
	b := PlanEpoch(verts, 8, 3, 2)
	if len(a.Batches) != 7 || len(a.Seeds) != 7 {
		t.Fatalf("plan shape %d/%d", len(a.Batches), len(a.Seeds))
	}
	for i := range a.Batches {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed %d differs across identical plans", i)
		}
		for j := range a.Batches[i] {
			if a.Batches[i][j] != b.Batches[i][j] {
				t.Fatalf("batch %d differs across identical plans", i)
			}
		}
	}
	// Different epochs reshuffle.
	c := PlanEpoch(verts, 8, 3, 3)
	same := true
	for i := range a.Batches[0] {
		if a.Batches[0][i] != c.Batches[0][i] {
			same = false
		}
	}
	if same {
		t.Fatal("epochs 2 and 3 produced the same shuffle")
	}
	// Every vertex appears exactly once per epoch.
	seen := make(map[int32]int)
	for _, b := range a.Batches {
		for _, v := range b {
			seen[v]++
		}
	}
	if len(seen) != 50 {
		t.Fatalf("plan covers %d of 50 vertices", len(seen))
	}
	for v, k := range seen {
		if k != 1 {
			t.Fatalf("vertex %d appears %d times", v, k)
		}
	}
}

func TestPlanEpochEmpty(t *testing.T) {
	p := PlanEpoch(nil, 8, 3, 0)
	if len(p.Batches) != 0 {
		t.Fatalf("empty training set produced %d batches", len(p.Batches))
	}
}

func TestRNGPickK(t *testing.T) {
	r := rng.NewRNG(5)
	for _, k := range []int{1, 3, 10} {
		got := r.PickK(make([]int, k), 10)
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 10 {
				t.Fatalf("PickK value %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("PickK repeated %d", v)
			}
			seen[v] = true
		}
	}
	// k == n is a full permutation.
	perm := rng.NewRNG(6).PickK(make([]int, 8), 8)
	seen := map[int]bool{}
	for _, v := range perm {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("PickK(8,8) not a permutation: %v", perm)
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	// SplitSeed must decorrelate adjacent (epoch, batch) pairs: identical
	// streams would make "independent" samplers draw the same neighbors.
	a := rng.NewRNG(rng.SplitSeed(1, 0, 0))
	b := rng.NewRNG(rng.SplitSeed(1, 0, 1))
	c := rng.NewRNG(rng.SplitSeed(1, 1, 0))
	same := 0
	for i := 0; i < 64; i++ {
		x, y, z := a.Uint64(), b.Uint64(), c.Uint64()
		if x == y || x == z || y == z {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d/64 draws collide across split streams", same)
	}
}

func TestBuildBlocksShapes(t *testing.T) {
	adj := gen.BTER(gen.DefaultBTER(300, 10, 3))
	batch := []int32{1, 5, 9}
	blocks := BuildBlocks(adj, batch, []int{5, 5}, 7)
	if len(blocks) != 2 {
		t.Fatalf("blocks %d", len(blocks))
	}
	// Innermost destination frontier is the batch.
	if len(blocks[1].Dst) != 3 {
		t.Fatalf("batch frontier %d", len(blocks[1].Dst))
	}
	// Frontiers chain: block l's sources are block l-1's destinations.
	if len(blocks[1].Src) != len(blocks[0].Dst) {
		t.Fatalf("frontier chain broken: %d vs %d", len(blocks[1].Src), len(blocks[0].Dst))
	}
	for i := range blocks[1].Src {
		if blocks[1].Src[i] != blocks[0].Dst[i] {
			t.Fatalf("frontier vertex mismatch at %d", i)
		}
	}
	for _, b := range blocks {
		if err := b.Adj.Validate(); err != nil {
			t.Fatal(err)
		}
		if b.Adj.Rows != len(b.Dst) || b.Adj.Cols != len(b.Src) {
			t.Fatalf("block shape %dx%d vs frontiers %d/%d", b.Adj.Rows, b.Adj.Cols, len(b.Dst), len(b.Src))
		}
	}
}

func TestBuildBlocksRowsAverage(t *testing.T) {
	adj := gen.BTER(gen.DefaultBTER(200, 8, 5))
	blocks := BuildBlocks(adj, []int32{0, 1}, []int{4}, 3)
	for _, b := range blocks {
		for v := 0; v < b.Adj.Rows; v++ {
			_, vals := b.Adj.Row(v)
			var s float64
			for _, x := range vals {
				s += float64(x)
			}
			if len(vals) > 0 && (s < 0.999 || s > 1.001) {
				t.Fatalf("row %d weights sum to %v, want 1 (mean aggregation)", v, s)
			}
		}
	}
}

func TestBuildBlocksSelfLoop(t *testing.T) {
	adj := gen.BTER(gen.DefaultBTER(100, 5, 9))
	blocks := BuildBlocks(adj, []int32{7}, []int{3}, 1)
	b := blocks[0]
	// The batch vertex must appear among its own sources (self-loop).
	var selfFound bool
	for _, u := range b.Src {
		if u == 7 {
			selfFound = true
		}
	}
	if !selfFound {
		t.Fatalf("self vertex missing from sources")
	}
}
