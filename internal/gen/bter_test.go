package gen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mggcn/internal/graph"
)

func TestBTERDeterministic(t *testing.T) {
	cfg := DefaultBTER(500, 8, 42)
	a := BTER(cfg)
	b := BTER(cfg)
	if a.NNZ() != b.NNZ() {
		t.Fatalf("same seed produced different nnz: %d vs %d", a.NNZ(), b.NNZ())
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			t.Fatalf("same seed produced different structure at %d", i)
		}
	}
}

func TestBTERSeedChangesGraph(t *testing.T) {
	a := BTER(DefaultBTER(500, 8, 1))
	b := BTER(DefaultBTER(500, 8, 2))
	same := a.NNZ() == b.NNZ()
	if same {
		for i := range a.ColIdx {
			if a.ColIdx[i] != b.ColIdx[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical graphs")
	}
}

func TestBTERHitsTargetDegree(t *testing.T) {
	for _, k := range []float64{4, 16, 64} {
		a := BTER(DefaultBTER(2000, k, 7))
		got := float64(a.NNZ()) / float64(a.Rows)
		if got < 0.5*k || got > 1.8*k {
			t.Fatalf("target degree %v, generated %v", k, got)
		}
	}
}

func TestBTERSymmetricStructure(t *testing.T) {
	a := BTER(DefaultBTER(300, 6, 9))
	tr := a.Transpose()
	if tr.NNZ() != a.NNZ() {
		t.Fatalf("transpose nnz differs")
	}
	da, dt := a.ToDenseRows(), tr.ToDenseRows()
	for i := range da {
		for j := range da[i] {
			if da[i][j] != dt[i][j] {
				t.Fatalf("structure not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestBTERValid(t *testing.T) {
	a := BTER(DefaultBTER(700, 12, 3))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Vals != nil {
		t.Fatalf("generator should emit structure-only adjacency")
	}
}

func TestBTERDegreeSkewInNaturalOrder(t *testing.T) {
	// The generator's natural order must be degree-sorted-ish: the first
	// tenth of the vertices should hold far more than a tenth of the edges.
	// This is the property that makes the "original ordering" imbalanced.
	a := BTER(DefaultBTER(2000, 20, 5))
	head := a.CountTileNNZ(0, 200, 0, 2000)
	frac := float64(head) / float64(a.NNZ())
	if frac < 0.2 {
		t.Fatalf("head vertices hold only %.2f of edge mass; want skew", frac)
	}
}

func TestDegreeSequenceProperties(t *testing.T) {
	cfg := DefaultBTER(1000, 10, 11)
	degs := degreeSequence(cfg)
	if len(degs) != 1000 {
		t.Fatalf("len=%d", len(degs))
	}
	var sum int
	for i, d := range degs {
		if d < 1 || d > 999 {
			t.Fatalf("degree %d out of range", d)
		}
		if i > 0 && degs[i-1] < d {
			t.Fatalf("sequence not descending at %d", i)
		}
		sum += d
	}
	mean := float64(sum) / 1000
	if math.Abs(mean-10) > 4 {
		t.Fatalf("mean degree %v far from 10", mean)
	}
}

func TestGenerateFullDataset(t *testing.T) {
	g := Generate("t", DefaultBTER(400, 6, 21), 16, 5, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.IsPhantom() {
		t.Fatalf("full dataset reported phantom")
	}
	if g.Features.Rows != 400 || g.Features.Cols != 16 {
		t.Fatalf("feature shape %dx%d", g.Features.Rows, g.Features.Cols)
	}
	seen := make([]bool, 5)
	for _, l := range g.Labels {
		seen[l] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("class %d never appears", c)
		}
	}
	if g.TrainMask == nil {
		t.Fatalf("split not assigned")
	}
}

func TestGeneratePhantomDataset(t *testing.T) {
	g := Generate("p", DefaultBTER(400, 6, 22), 16, 5, true)
	if !g.IsPhantom() {
		t.Fatalf("phantom dataset has features")
	}
	if g.FeatDim != 16 || g.Classes != 5 {
		t.Fatalf("phantom metadata lost: %d/%d", g.FeatDim, g.Classes)
	}
}

func TestLabelsAreHomophilous(t *testing.T) {
	// After propagation, the fraction of edges joining same-label endpoints
	// must exceed the random baseline 1/classes by a wide margin.
	adj := BTER(DefaultBTER(800, 10, 31))
	labels, _ := drawClasses(adj.Rows, 1, 4, 0, rand.New(rand.NewSource(31))).finish(adj, 0)
	var same, total int
	for u := 0; u < adj.Rows; u++ {
		cols, _ := adj.Row(u)
		for _, v := range cols {
			total++
			if labels[u] == labels[v] {
				same++
			}
		}
	}
	frac := float64(same) / float64(total)
	if frac < 0.4 {
		t.Fatalf("homophily %.2f too low (random would be 0.25)", frac)
	}
}

func TestClassFeaturesSeparateClasses(t *testing.T) {
	adj := BTER(DefaultBTER(200, 6, 8))
	labels, x := drawClasses(adj.Rows, 32, 2, 1.5, rand.New(rand.NewSource(8))).finish(adj, 0)
	// Same-class rows must be closer (on average) than cross-class rows.
	dist := func(a, b int) float64 {
		var s float64
		for j := 0; j < 32; j++ {
			d := float64(x.At(a, j) - x.At(b, j))
			s += d * d
		}
		return s
	}
	var within, across [2]float64
	for a := range labels {
		for b := a + 1; b < len(labels); b++ {
			same := 0
			if labels[a] == labels[b] {
				same = 1
			}
			within[same] += dist(a, b)
			across[same]++
		}
	}
	if w, c := within[1]/across[1], within[0]/across[0]; w >= c {
		t.Fatalf("classes not separated: within=%v across=%v", w, c)
	}
}

func TestCatalogMatchesTable1(t *testing.T) {
	c := Catalog()
	if len(c) != 6 {
		t.Fatalf("catalog has %d datasets, want 6", len(c))
	}
	checks := map[string]struct {
		k       float64
		feat    int
		classes int
	}{
		"cora":     {3, 3703, 6},
		"arxiv":    {7, 128, 40},
		"papers":   {15, 128, 172},
		"products": {52, 104, 47},
		"proteins": {150, 128, 256},
		"reddit":   {492, 602, 41},
	}
	for name, want := range checks {
		s, ok := c[name]
		if !ok {
			t.Fatalf("missing dataset %q", name)
		}
		if math.Abs(s.AvgDegree-want.k) > 1 {
			t.Errorf("%s: avg degree %v, want %v", name, s.AvgDegree, want.k)
		}
		if s.FeatDim != want.feat || s.Classes != want.classes {
			t.Errorf("%s: feat/classes %d/%d, want %d/%d", name, s.FeatDim, s.Classes, want.feat, want.classes)
		}
		if s.GenN() <= 0 || s.GenN() > 200_000 {
			t.Errorf("%s: generated n %d outside sane range", name, s.GenN())
		}
	}
}

func TestLoadUnknownDataset(t *testing.T) {
	if _, _, err := Load("nope", true); err == nil {
		t.Fatalf("expected error for unknown dataset")
	}
}

func TestLoadCachesInstances(t *testing.T) {
	clearCache()
	g1, _, err := Load("cora", true)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := Load("cora", true)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatalf("cache miss on second load")
	}
}

func TestLoadPreservesAvgDegree(t *testing.T) {
	clearCache()
	g, spec, err := Load("arxiv", true)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != spec.GenN() {
		t.Fatalf("n=%d, want %d", g.N(), spec.GenN())
	}
	k := g.AvgDegree()
	if k < spec.AvgDegree*0.5 || k > spec.AvgDegree*1.8 {
		t.Fatalf("avg degree %v, target %v", k, spec.AvgDegree)
	}
}

func TestDegreeScaledSpec(t *testing.T) {
	s1 := DegreeScaledSpec(1)
	s8 := DegreeScaledSpec(8)
	if s8.AvgDegree != 8*s1.AvgDegree {
		t.Fatalf("degree did not scale: %v vs %v", s1.AvgDegree, s8.AvgDegree)
	}
	if s1.GenN() != s8.GenN() {
		t.Fatalf("vertex count must stay fixed across the family")
	}
	if s1.FeatDim != 512 || s1.Classes != 40 {
		t.Fatalf("family must use 512 features / 40 classes per §6")
	}
}

func TestLoadDegreeScaled(t *testing.T) {
	g, spec := LoadDegreeScaled(2, true)
	if g.N() != spec.GenN() {
		t.Fatalf("n mismatch")
	}
	k := g.AvgDegree()
	if k < spec.AvgDegree*0.5 || k > spec.AvgDegree*1.8 {
		t.Fatalf("avg degree %v, target %v", k, spec.AvgDegree)
	}
	var _ *graph.Graph = g
}

// clearCache drops all cached datasets (tests use it to bound memory).
func clearCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	cache = map[string]*graph.Graph{}
}

// catalogBTER is the generator config of a catalog dataset.
func catalogBTER(name string) BTERConfig {
	s := Catalog()[name]
	return DefaultBTER(s.GenN(), s.AvgDegree, s.Seed)
}

// BenchmarkBTER times synthesis at each repository benchmark workload's
// graph shape (vertices, average degree), seed 1, and at three catalog
// datasets': reddit's, whose Chung-Lu phase is most of it, and the two
// smallest. Each runs on as many lanes as pay and again on one.
func BenchmarkBTER(b *testing.B) {
	for _, w := range []struct {
		name string
		cfg  BTERConfig
	}{
		{"fullbatch-gemm", DefaultBTER(40000, 52, 1)},
		{"fullbatch-spmm", DefaultBTER(16384, 384, 1)},
		{"sampled-fanout", DefaultBTER(16384, 52, 1)},
		{"sampled-thin", DefaultBTER(120000, 15, 1)},
		{"reddit", catalogBTER("reddit")},
		{"cora", catalogBTER("cora")},
		{"arxiv", catalogBTER("arxiv")},
	} {
		for _, lanes := range []int{0, 1} {
			name := w.name
			if lanes == 1 {
				name += "-lanes=1"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bter(w.cfg, lanes, nil)
				}
			})
		}
	}
}

// TestGenerateSameOnEveryLaneCount holds Generate's dataset to the one a
// single lane makes, on two and three lanes (structure, labels, features and
// split). Among the graphs is one whose phase 2 runs out of attempts; a
// phase 2 that stops exactly at a round's end is TestEdgeTableStopsAtTarget.
func TestGenerateSameOnEveryLaneCount(t *testing.T) {
	// At N = 20 and degree 19 the target is every pair, which the draws do
	// not reach in 4·target attempts.
	exhausted := DefaultBTER(20, 19, 1)
	if p := phase2Of(exhausted); checkChungLu(t, p, 1) != 4*p.target {
		t.Fatalf("N=%d: phase 2 does not make the %d attempts the case is for", exhausted.N, 4*p.target)
	}
	for _, cfg := range []BTERConfig{DefaultBTER(1500, 30, 4), DefaultBTER(600, 8, 5), DefaultBTER(3, 2, 10), DefaultBTER(1, 1, 8), exhausted} {
		want := generate("lanes", cfg, 8, 3, false, 1)
		got := map[string]*graph.Graph{"Generate's": Generate("lanes", cfg, 8, 3, false)}
		for lanes := 2; lanes <= 3; lanes++ {
			got[fmt.Sprint(lanes)] = generate("lanes", cfg, 8, 3, false, lanes)
		}
		for lanes, g := range got {
			if csrDigest(g.Adj) != csrDigest(want.Adj) || datasetDigest(g) != datasetDigest(want) {
				t.Errorf("N=%d: %s lanes generate another dataset than one lane", cfg.N, lanes)
			}
		}
	}
}
