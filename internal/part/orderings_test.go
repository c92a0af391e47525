package part

import (
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/sparse"
)

func isBijection(perm []int32) bool {
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if int(p) < 0 || int(p) >= len(perm) || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

func TestDegreeSortPermIsBijection(t *testing.T) {
	a := gen.BTER(gen.DefaultBTER(500, 10, 3))
	perm := DegreeSortPerm(a)
	if !isBijection(perm) {
		t.Fatalf("not a bijection")
	}
	// Highest-degree vertex must land at position 0's block.
	inv := sparse.InversePerm(perm)
	maxDeg := int64(0)
	for v := 0; v < a.Rows; v++ {
		if d := a.RowNNZ(v); d > maxDeg {
			maxDeg = d
		}
	}
	if a.RowNNZ(int(inv[0])) != maxDeg {
		t.Fatalf("position 0 holds degree %d, max is %d", a.RowNNZ(int(inv[0])), maxDeg)
	}
}

func TestBFSPermIsBijectionAndCoversComponents(t *testing.T) {
	// Two disconnected components: BFS must still number every vertex.
	entries := []sparse.Coo{
		{Row: 0, Col: 1}, {Row: 1, Col: 0},
		{Row: 3, Col: 4}, {Row: 4, Col: 3},
	}
	a := sparse.FromCoo(5, 5, entries, false)
	perm := BFSPerm(a, 0)
	if !isBijection(perm) {
		t.Fatalf("not a bijection: %v", perm)
	}
}

func TestBFSPermLocality(t *testing.T) {
	// On a path graph, BFS from one end gives the identity-like ordering:
	// neighbors end up adjacent.
	var entries []sparse.Coo
	n := 50
	for v := 0; v < n-1; v++ {
		entries = append(entries,
			sparse.Coo{Row: int32(v), Col: int32(v + 1)},
			sparse.Coo{Row: int32(v + 1), Col: int32(v)})
	}
	a := sparse.FromCoo(n, n, entries, false)
	perm := BFSPerm(a, 0)
	for v := 0; v < n; v++ {
		if perm[v] != int32(v) {
			t.Fatalf("path BFS should be identity, got perm[%d]=%d", v, perm[v])
		}
	}
}

func TestBFSPermBadSeed(t *testing.T) {
	a := sparse.FromCoo(3, 3, []sparse.Coo{{Row: 0, Col: 1}}, false)
	if !isBijection(BFSPerm(a, -5)) || !isBijection(BFSPerm(a, 99)) {
		t.Fatalf("out-of-range seeds must fall back to 0")
	}
}

func TestBlockCyclicPerm(t *testing.T) {
	perm := BlockCyclicPerm(6, 2)
	// Vertices 0,2,4 -> positions 0,1,2; vertices 1,3,5 -> 3,4,5.
	want := []int32{0, 3, 1, 4, 2, 5}
	for v, w := range want {
		if perm[v] != w {
			t.Fatalf("perm=%v, want %v", perm, want)
		}
	}
	if !isBijection(BlockCyclicPerm(17, 4)) {
		t.Fatalf("uneven block-cyclic not a bijection")
	}
	if !isBijection(BlockCyclicPerm(5, 0)) {
		t.Fatalf("parts<1 must clamp")
	}
}

func TestOrderingBalanceRanking(t *testing.T) {
	// On a degree-skewed graph split 8 ways: degree-sorted ordering must
	// be the most imbalanced; random and block-cyclic must both fix it.
	adj := gen.BTER(gen.DefaultBTER(4000, 24, 9))
	vec := Uniform(adj.Rows, 8)
	imbalance := func(perm []int32) float64 {
		return totalImbalance(permutedTileNNZ(adj, perm, vec)).Imbalance
	}
	natural := imbalance(nil)
	sorted := imbalance(DegreeSortPerm(adj))
	random := imbalance(RandomPerm(adj.Rows, 4))
	cyclic := imbalance(BlockCyclicPerm(adj.Rows, 8))
	if sorted < natural*0.95 {
		t.Fatalf("degree sort should not improve the natural order: %v vs %v", sorted, natural)
	}
	if random >= sorted || random > 1.3 {
		t.Fatalf("random imbalance %v should beat degree-sorted %v", random, sorted)
	}
	if cyclic >= sorted {
		t.Fatalf("block-cyclic %v should beat degree-sorted %v", cyclic, sorted)
	}
}
