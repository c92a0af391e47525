package graph

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

func tinyGraph() *Graph {
	adj := sparse.FromCoo(4, 4, []sparse.Coo{
		{Row: 0, Col: 1}, {Row: 1, Col: 0}, {Row: 1, Col: 2},
		{Row: 2, Col: 3}, {Row: 3, Col: 2},
	}, false)
	feats := tensor.NewDense(4, 2)
	return &Graph{
		Name: "tiny", Adj: adj, Features: feats,
		Labels: []int32{0, 1, 0, 1}, Classes: 2, FeatDim: 2,
	}
}

func TestGraphBasics(t *testing.T) {
	g := tinyGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 5 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if math.Abs(g.AvgDegree()-1.25) > 1e-12 {
		t.Fatalf("AvgDegree=%v", g.AvgDegree())
	}
	if g.IsPhantom() {
		t.Fatalf("graph with features reported phantom")
	}
}

func TestValidateCatchesBadLabel(t *testing.T) {
	g := tinyGraph()
	g.Labels[2] = 9
	if g.Validate() == nil {
		t.Fatalf("Validate missed out-of-range label")
	}
}

func TestValidateCatchesFeatureMismatch(t *testing.T) {
	g := tinyGraph()
	g.Features = tensor.NewDense(3, 2)
	if g.Validate() == nil {
		t.Fatalf("Validate missed feature row mismatch")
	}
	g = tinyGraph()
	g.FeatDim = 5
	if g.Validate() == nil {
		t.Fatalf("Validate missed FeatDim mismatch")
	}
}

func TestDegrees(t *testing.T) {
	g := tinyGraph()
	in := g.InDegrees()
	if in[2] != 2 || in[1] != 1 || in[0] != 1 || in[3] != 1 {
		t.Fatalf("in degrees %v", in)
	}
}

func TestNormalizedAdjColumnsAverage(t *testing.T) {
	g := tinyGraph()
	norm := g.NormalizedAdj()
	// Column 2 has in-degree 2; both entries must be 1/2.
	d := norm.ToDenseRows()
	if d[1][2] != 0.5 || d[3][2] != 0.5 {
		t.Fatalf("normalization wrong: %v", d)
	}
}

func TestSplitPartitionsVertices(t *testing.T) {
	g := tinyGraph()
	g.Split(0.5, 0.25, 42)
	counts := [3]int{}
	for v := 0; v < g.N(); v++ {
		k := 0
		if g.TrainMask[v] {
			counts[0]++
			k++
		}
		if g.ValMask[v] {
			counts[1]++
			k++
		}
		if g.TestMask[v] {
			counts[2]++
			k++
		}
		if k != 1 {
			t.Fatalf("vertex %d in %d masks", v, k)
		}
	}
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("split counts %v", counts)
	}
}

func TestSplitDeterministic(t *testing.T) {
	g1, g2 := tinyGraph(), tinyGraph()
	g1.Split(0.5, 0.25, 7)
	g2.Split(0.5, 0.25, 7)
	for v := 0; v < g1.N(); v++ {
		if g1.TrainMask[v] != g2.TrainMask[v] {
			t.Fatalf("split not deterministic at vertex %d", v)
		}
	}
}

// TestSplitMatchesSortedKeys holds Split to sorting every vertex by its key
// and cutting the order at nTrain and nTrain+nVal, over vertex counts around
// powers of two, fractions that put a cut at 0 or n, and several seeds.
func TestSplitMatchesSortedKeys(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 400, 1023, 1024, 1025, 40000} {
		for _, f := range [][2]float64{{0.6, 0.2}, {0, 0}, {1, 0}, {0, 1}, {0.5, 0.5}, {0.001, 0.998}} {
			for _, seed := range []uint64{0, 2, 23, 1 << 63} {
				g := &Graph{Adj: &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}}
				g.Split(f[0], f[1], seed)
				order := make([]int, n)
				for v := range order {
					order[v] = v
				}
				slices.SortFunc(order, func(a, b int) int { return cmp.Compare(mix64(uint64(a)+seed), mix64(uint64(b)+seed)) })
				nTrain, nVal := int(f[0]*float64(n)), int(f[1]*float64(n))
				for r, v := range order {
					if g.TrainMask[v] != (r < nTrain) || g.ValMask[v] != (r >= nTrain && r < nTrain+nVal) || g.TestMask[v] != (r >= nTrain+nVal) {
						t.Fatalf("n=%d fractions %v seed %d: vertex %d of rank %d in masks %v/%v/%v",
							n, f, seed, v, r, g.TrainMask[v], g.ValMask[v], g.TestMask[v])
					}
				}
			}
		}
	}
}

func TestSplitBadFractionsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	tinyGraph().Split(0.9, 0.2, 1)
}

// BenchmarkSplit times the split of sampled-thin's 120 000 vertices.
func BenchmarkSplit(b *testing.B) {
	g := &Graph{Adj: &sparse.CSR{Rows: 120000, Cols: 120000, RowPtr: make([]int64, 120001)}}
	for i := 0; i < b.N; i++ {
		g.Split(0.6, 0.2, 3)
	}
}
