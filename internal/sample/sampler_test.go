package sample

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/rng"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// refPickK is PickK as it was before the scratch array: the virtual identity
// array's overwritten positions live in a map.
func refPickK(r *rng.RNG, dst []int, n int) []int {
	touched := make(map[int]int, 2*len(dst))
	at := func(i int) int {
		if v, ok := touched[i]; ok {
			return v
		}
		return i
	}
	for i := range dst {
		j := i + r.Intn(n-i)
		dst[i] = at(j)
		touched[j] = at(i)
	}
	return dst
}

// refBuildBlocks is BuildBlocks as it was before Sampler — frontier sets in
// maps, an edge list, FromCoo's sort and NormalizeRowMean — kept as the
// reference Sampler.Build must match bit for bit. It also returns its RNG so
// the stream position can be compared.
func refBuildBlocks(adj *sparse.CSR, batch []int32, fanouts []int, seed int64) ([]*Block, *rng.RNG) {
	r := rng.NewRNG(seed)
	dst := slices.Clone(batch)
	slices.Sort(dst)
	dst = slices.Compact(dst)
	blocks := make([]*Block, len(fanouts))
	for h := len(fanouts) - 1; h >= 0; h-- {
		fanout := fanouts[h]
		srcSet := map[int32]struct{}{}
		type edge struct{ d, s int32 }
		var edges []edge
		for _, v := range dst {
			srcSet[v] = struct{}{} // self-loop
			edges = append(edges, edge{v, v})
			cols, _ := adj.Row(int(v))
			if len(cols) <= fanout {
				for _, u := range cols {
					srcSet[u] = struct{}{}
					edges = append(edges, edge{v, u})
				}
			} else {
				for _, idx := range refPickK(r, make([]int, fanout), len(cols)) {
					u := cols[idx]
					srcSet[u] = struct{}{}
					edges = append(edges, edge{v, u})
				}
			}
		}
		src := make([]int32, 0, len(srcSet))
		for u := range srcSet {
			src = append(src, u)
		}
		sort.Slice(src, func(i, j int) bool { return src[i] < src[j] })
		srcIdx := make(map[int32]int32, len(src))
		for i, u := range src {
			srcIdx[u] = int32(i)
		}
		dstIdx := make(map[int32]int32, len(dst))
		for i, v := range dst {
			dstIdx[v] = int32(i)
		}
		entries := make([]sparse.Coo, 0, len(edges))
		for _, e := range edges {
			entries = append(entries, sparse.Coo{Row: dstIdx[e.d], Col: srcIdx[e.s], Val: 1})
		}
		bip := sparse.FromCoo(len(dst), len(src), entries, true)
		blocks[h] = &Block{Adj: sparse.NormalizeRowMean(bip), Src: src, Dst: dst}
		dst = src
	}
	return blocks, r
}

// randomCSR draws an n-vertex directed graph for the differential test:
// vertex 0 is a hub pointing at everything (and itself), every fifth vertex
// is isolated, a third of the rest carry a self-loop, and out-degrees vary
// from 0 to maxDeg.
func randomCSR(r *rng.RNG, n, maxDeg int) *sparse.CSR {
	var entries []sparse.Coo
	for u := 0; u < n; u++ {
		entries = append(entries, sparse.Coo{Row: 0, Col: int32(u)})
	}
	for v := 1; v < n; v++ {
		if v%5 == 0 {
			continue
		}
		if r.Intn(3) == 0 {
			entries = append(entries, sparse.Coo{Row: int32(v), Col: int32(v)})
		}
		for d := r.Intn(maxDeg + 1); d > 0; d-- {
			entries = append(entries, sparse.Coo{Row: int32(v), Col: int32(r.Intn(n))})
		}
	}
	return sparse.FromCoo(n, n, entries, false)
}

func sameCSR(a, b *sparse.CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && (a.Vals != nil) == (b.Vals != nil) &&
		slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) &&
		slices.Equal(a.Vals, b.Vals) // float32 == is bit equality here: no NaNs, no zeros
}

// TestSamplerMatchesReference is the rewrite's differential test: over random
// graphs with self-loops, a hub row and isolated vertices, batches with
// duplicate seeds and batches covering every vertex, and fanouts from 1 to
// beyond the maximum degree, one reused Sampler must reproduce the old
// construction bit for bit — frontiers, CSR, the cached transpose — and
// leave the random stream at the same position.
func TestSamplerMatchesReference(t *testing.T) {
	gen := rng.NewRNG(2024)
	for trial := 0; trial < 12; trial++ {
		n := 20 + gen.Intn(200)
		maxDeg := 1 + gen.Intn(12)
		adj := randomCSR(gen, n, maxDeg)
		for _, fanouts := range [][]int{{1}, {3, 2}, {2, 4, 3}, {maxDeg + 5, n + 1}} {
			s := NewSampler(adj, fanouts)
			for rep := 0; rep < 6; rep++ {
				var batch []int32
				switch rep {
				case 0: // empty
				case 1: // every vertex, twice: more seeds than the graph has vertices
					for v := 0; v < 2*n; v++ {
						batch = append(batch, int32(v%n))
					}
				default:
					for i := gen.Intn(n) + 1; i > 0; i-- {
						batch = append(batch, int32(gen.Intn(n)))
					}
					batch = append(batch, batch[0], 0) // a duplicate seed and the hub
				}
				seed := int64(gen.Uint64() >> 1)
				name := fmt.Sprintf("trial %d n=%d fanouts %v rep %d", trial, n, fanouts, rep)
				want, wantRNG := refBuildBlocks(adj, batch, fanouts, seed)
				got := s.Build(batch, seed)
				if s.rng.Uint64() != wantRNG.Uint64() { // a draw is a bijection of the position
					t.Fatalf("%s: stream position differs", name)
				}
				if msg := diffBlocks(got, want, n); msg != "" {
					t.Fatalf("%s: %s", name, msg)
				}
			}
		}
	}
}

// diffBlocks describes the first way a Sampler's blocks differ from the
// reference construction's, or returns "" when they match bit for bit:
// frontiers, adjacency, the cached transpose (none on the outermost block)
// and the outermost block's global columns (none on the others).
func diffBlocks(got, want []*Block, n int) string {
	for h := range want {
		w, g := want[h], got[h]
		switch {
		case !slices.Equal(g.Src, w.Src) || !slices.Equal(g.Dst, w.Dst):
			return fmt.Sprintf("block %d: frontiers differ", h)
		case !sameCSR(g.Adj, w.Adj):
			return fmt.Sprintf("block %d: adjacency differs", h)
		case g.Adj.Validate() != nil:
			return fmt.Sprintf("block %d: %v", h, g.Adj.Validate())
		case h == 0 && g.AdjT != nil:
			return "the outermost block carries a transpose nobody reads"
		case h > 0 && !sameCSR(g.AdjT, w.Adj.Transpose()):
			return fmt.Sprintf("block %d: cached transpose differs from Adj.Transpose()", h)
		case h > 0 && g.AdjGlobal != nil:
			return fmt.Sprintf("block %d carries a global adjacency nobody reads", h)
		}
	}
	if len(want) == 0 {
		return ""
	}
	g, adj := got[0].AdjGlobal, want[0].Adj
	if g.Rows != adj.Rows || g.Cols != n || !slices.Equal(g.RowPtr, adj.RowPtr) || !slices.Equal(g.Vals, adj.Vals) ||
		len(g.ColIdx) != len(adj.ColIdx) {
		return "the global block does not share Adj's rows and values"
	}
	for k, c := range adj.ColIdx {
		if g.ColIdx[k] != want[0].Src[c] {
			return fmt.Sprintf("global column %d is %d, Src[%d] = %d", k, g.ColIdx[k], c, want[0].Src[c])
		}
	}
	return ""
}

// FuzzSamplerMatchesReference holds a reused Sampler to the reference
// construction over fuzzed graphs: 66-125 vertices with strictly ascending
// rows whose degrees (one byte each, cycled) spread over 0..n, so across the
// fanout and across 64, some with their own self-loop, and vertex 0 a hub of
// more than 64. Two consecutive Builds over a fuzzed batch with a duplicate,
// at 1-3 fanouts of 1-70, must match refBuildBlocks bit for bit and leave the
// stream where it does.
func FuzzSamplerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 10, 200, 64, 255, 3}, []byte{1, 2, 2, 0, 70}, []byte{9, 4}, int64(1))
	f.Add([]byte{59, 127, 90, 30, 129, 1, 66}, []byte{0, 65, 124, 3, 3}, []byte{69, 63, 0}, int64(-7))
	f.Add([]byte{17}, []byte{}, []byte{}, int64(3))
	f.Fuzz(func(t *testing.T, degs, batch, fans []byte, seed int64) {
		if len(degs) == 0 {
			return
		}
		n := 66 + int(degs[0])%60
		gen := rng.NewRNG(^seed)
		var entries []sparse.Coo
		for v := 0; v < n; v++ {
			b := degs[v%len(degs)]
			deg := int(b&0x7f) * n / 127
			if v == 0 {
				deg = max(deg, 65)
			}
			for _, u := range gen.PickK(make([]int, deg), n) {
				entries = append(entries, sparse.Coo{Row: int32(v), Col: int32(u)})
			}
			if b&0x80 != 0 {
				entries = append(entries, sparse.Coo{Row: int32(v), Col: int32(v)})
			}
		}
		adj := sparse.FromCoo(n, n, entries, false)
		fanouts := []int{1}
		if len(fans) > 0 {
			fanouts = fanouts[:0]
			for _, b := range fans[:min(len(fans), 3)] {
				fanouts = append(fanouts, 1+int(b)%70)
			}
		}
		s := NewSampler(adj, fanouts)
		for rep := 0; rep < 2; rep++ {
			verts := []int32{0}
			for _, b := range batch {
				verts = append(verts, int32((int(b)+rep*37)%n))
			}
			verts = append(verts, verts[len(verts)-1])
			want, wantRNG := refBuildBlocks(adj, verts, fanouts, seed+int64(rep))
			got := s.Build(verts, seed+int64(rep))
			if s.rng.Uint64() != wantRNG.Uint64() {
				t.Fatalf("build %d: stream position differs", rep)
			}
			if msg := diffBlocks(got, want, n); msg != "" {
				t.Fatalf("build %d, fanouts %v: %s", rep, fanouts, msg)
			}
		}
	})
}

// refIntn is Intn as it was before it skipped the bound's computation: two
// divisions per draw. It also reports whether it rejected any draw.
func refIntn(r *rng.RNG, n int) (int, bool) {
	bound := uint64(n)
	limit := -bound % bound // == 2^64 mod n
	for rejected := false; ; rejected = true {
		if v := r.Uint64(); v >= limit {
			return int(v % bound), rejected
		}
	}
}

// TestIntnMatchesRejection: Intn draws what the two-division rejection loop
// draws and leaves the stream where it does, at small bounds and at large
// ones where a quarter of the draws fall in the rejected tail.
func TestIntnMatchesRejection(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 10, 64, 1000, 1 << 31, 1<<62 + 1, 3 << 61} {
		got, want := rng.NewRNG(int64(n)), rng.NewRNG(int64(n))
		rejections := 0
		for i := 0; i < 1_000_000; i++ {
			w, rejected := refIntn(want, n)
			if g := got.Intn(n); g != w {
				t.Fatalf("Intn(%d) draw %d: %d, reference %d", n, i, g, w)
			}
			if rejected {
				rejections++
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("Intn(%d): stream positions differ", n)
		}
		if n > 1<<62 && rejections == 0 {
			t.Fatalf("Intn(%d): no draw was rejected, so the test did not reach the rejection path", n)
		}
	}
}

// TestSamplerGlobalBlock: over random graphs, batches and fanouts (past the
// maximum degree too), the outermost block's AdjGlobal is Adj with every
// column mapped through Src, and the layer-0 aggregate over the whole
// feature store through it is bit-identical to the aggregate over the
// gathered rows through Adj.
func TestSamplerGlobalBlock(t *testing.T) {
	gen := rng.NewRNG(77)
	for trial := 0; trial < 10; trial++ {
		n := 20 + gen.Intn(200)
		maxDeg := 1 + gen.Intn(12)
		adj := randomCSR(gen, n, maxDeg)
		feat := tensor.NewDense(n, 1+gen.Intn(70))
		for i := range feat.Data {
			feat.Data[i] = float32(int64(gen.Uint64()%2001)-1000) / 37
		}
		for _, fanouts := range [][]int{{1}, {3, 2}, {maxDeg + 5, n + 1}} {
			s := NewSampler(adj, fanouts)
			for rep := 0; rep < 4; rep++ {
				var batch []int32
				for i := gen.Intn(n) + 1; i > 0; i-- {
					batch = append(batch, int32(gen.Intn(n)))
				}
				name := fmt.Sprintf("trial %d n=%d fanouts %v rep %d", trial, n, fanouts, rep)
				b := s.Build(batch, int64(gen.Uint64()>>1))[0]
				g := b.AdjGlobal
				if g.Rows != b.Adj.Rows || g.Cols != n || !slices.Equal(g.RowPtr, b.Adj.RowPtr) || !slices.Equal(g.Vals, b.Adj.Vals) {
					t.Fatalf("%s: global block %dx%d does not share Adj's rows and values", name, g.Rows, g.Cols)
				}
				if len(g.ColIdx) != len(b.Adj.ColIdx) {
					t.Fatalf("%s: %d global columns for %d local", name, len(g.ColIdx), len(b.Adj.ColIdx))
				}
				for k, c := range b.Adj.ColIdx {
					if g.ColIdx[k] != b.Src[c] {
						t.Fatalf("%s entry %d: global column %d, Src[%d] = %d", name, k, g.ColIdx[k], c, b.Src[c])
					}
				}
				x := tensor.NewDense(len(b.Src), feat.Cols)
				NewFeatureCache(feat, make([]int64, n), 0).Gather(x, feat, b.Src)
				want, got := tensor.NewDense(b.Adj.Rows, feat.Cols), tensor.NewDense(b.Adj.Rows, feat.Cols)
				sparse.SpMM(b.Adj, x, 0, want)
				sparse.SpMM(g, feat, 0, got)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%s: global aggregate diverges at %d: %v != %v", name, i, got.Data[i], want.Data[i])
					}
				}
			}
			for h, b := range s.blocks[1:] {
				if b.AdjGlobal != nil {
					t.Fatalf("block %d carries a global adjacency nobody reads", h+1)
				}
			}
		}
	}
}

// TestSamplerDuplicateSelfLoopWeight pins the one value the direct emission
// has to go out of its way for: a vertex whose row already holds itself gets
// the self-loop twice, and FromCoo's float32 sum of the two then divides by
// the row's entry count.
func TestSamplerDuplicateSelfLoopWeight(t *testing.T) {
	adj := sparse.FromCoo(3, 3, []sparse.Coo{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 0, Col: 2}}, false)
	b := BuildBlocks(adj, []int32{0}, []int{5}, 1)[0]
	want := []float32{float32(float64(float32(2)) / 4), 0.25, 0.25}
	if !slices.Equal(b.Adj.Vals, want) {
		t.Fatalf("weights %v, want %v", b.Adj.Vals, want)
	}
}

// TestSamplerWarmBuildAllocatesNothing: once the arenas have grown to a
// batch's size, building it again must not touch the allocator — the
// sampler stage runs every step.
func TestSamplerWarmBuildAllocatesNothing(t *testing.T) {
	gen := rng.NewRNG(7)
	adj := randomCSR(gen, 400, 20)
	batch := make([]int32, 64)
	for i := range batch {
		batch[i] = int32(gen.Intn(400))
	}
	s := NewSampler(adj, []int{4, 6, 3})
	s.Build(batch, 11)
	if got := testing.AllocsPerRun(20, func() { s.Build(batch, 11) }); got != 0 {
		t.Fatalf("warmed Sampler.Build allocated %v times per batch, want 0", got)
	}
}

// TestPickKMatchesReference: the scratch-array PickK draws the same values
// from the same stream as the map-backed one, over a (k, n) grid on one
// long-lived generator (so scratch left by earlier calls is in play).
func TestPickKMatchesReference(t *testing.T) {
	got, want := rng.NewRNG(99), rng.NewRNG(99)
	for _, n := range []int{1, 2, 3, 7, 16, 100, 1000, 5} {
		for _, k := range []int{0, 1, 2, 5, 15, 64, n} {
			if k > n {
				continue
			}
			for rep := 0; rep < 3; rep++ {
				g := got.PickK(make([]int, k), n)
				w := refPickK(want, make([]int, k), n)
				if !slices.Equal(g, w) {
					t.Fatalf("PickK(k=%d, n=%d) drew %v, reference %v", k, n, g, w)
				}
			}
		}
	}
	if got.Uint64() != want.Uint64() {
		t.Fatal("stream positions differ after the grid")
	}
}

// BenchmarkSamplerEpoch builds one epoch's plan with one reused Sampler at the
// sampled benchmark workloads' shapes: their BTER graph (seed 1), training
// split, batch size and fanouts. It is the sample task's host cost for a
// whole epoch on one device.
func BenchmarkSamplerEpoch(b *testing.B) {
	for _, w := range []struct {
		name    string
		n       int
		deg     float64
		batch   int
		fanouts []int
	}{
		{"sampled-thin", 120000, 15, 256, []int{10, 10}},
		{"sampled-fanout", 16384, 52, 512, []int{5, 10, 15}},
	} {
		b.Run(w.name, func(b *testing.B) {
			g := gen.Generate(w.name, gen.DefaultBTER(w.n, w.deg, 1), 1, 2, false)
			var train []int32
			for v, ok := range g.TrainMask {
				if ok {
					train = append(train, int32(v))
				}
			}
			plan := PlanEpoch(train, w.batch, 1, 0)
			s := NewSampler(g.Adj, w.fanouts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, batch := range plan.Batches {
					s.Build(batch, plan.Seeds[j])
				}
			}
		})
	}
}
