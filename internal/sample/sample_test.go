package sample

import (
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/sparse"
)

func pathGraph(n int) *sparse.CSR {
	var entries []sparse.Coo
	for v := 0; v < n-1; v++ {
		entries = append(entries,
			sparse.Coo{Row: int32(v), Col: int32(v + 1)},
			sparse.Coo{Row: int32(v + 1), Col: int32(v)})
	}
	return sparse.FromCoo(n, n, entries, false)
}

func TestKHopReachPath(t *testing.T) {
	adj := pathGraph(10)
	counts := KHopReach(adj, []int32{0}, 3)
	want := []int{1, 2, 3, 4} // one new vertex per hop along a path end
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("counts=%v, want %v", counts, want)
		}
	}
}

func TestKHopReachMonotoneAndBounded(t *testing.T) {
	adj := gen.BTER(gen.DefaultBTER(800, 12, 3))
	counts := KHopReach(adj, []int32{0, 1, 2}, 4)
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("reach not monotone: %v", counts)
		}
	}
	if counts[len(counts)-1] > adj.Rows {
		t.Fatalf("reach exceeds graph size")
	}
}

func TestKHopExplosionOnDenseGraph(t *testing.T) {
	// The paper's §1 claim: a small batch reaches almost every vertex in a
	// few hops on dense graphs.
	adj := gen.BTER(gen.DefaultBTER(3000, 60, 7))
	counts := KHopReach(adj, []int32{0, 10, 20, 30}, 3)
	frac := float64(counts[len(counts)-1]) / float64(adj.Rows)
	if frac < 0.8 {
		t.Fatalf("3-hop reach only %.2f of the graph; expected explosion", frac)
	}
	// ...while the seed set itself is tiny.
	if counts[0] != 4 {
		t.Fatalf("seed count %d", counts[0])
	}
}

func TestKHopDuplicateSeeds(t *testing.T) {
	adj := pathGraph(5)
	counts := KHopReach(adj, []int32{2, 2, 2}, 1)
	if counts[0] != 1 {
		t.Fatalf("duplicate seeds double counted: %v", counts)
	}
}

func TestKHopBadSeedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	KHopReach(pathGraph(3), []int32{7}, 1)
}
