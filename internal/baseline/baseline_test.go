package baseline

import (
	"math"
	"testing"

	"mggcn/internal/core"
	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
)

func loadPhantom(t *testing.T, name string) (*graph.Graph, int) {
	t.Helper()
	g, spec, err := gen.Load(name, true)
	if err != nil {
		t.Fatal(err)
	}
	return g, spec.Scale
}

func TestDGLEpochPositiveAndScalesWithModel(t *testing.T) {
	g, scale := loadPhantom(t, "arxiv")
	small := NewDGL(sim.DGXV100(), scale, 64, 2).EpochSeconds(g)
	big := NewDGL(sim.DGXV100(), scale, 512, 3).EpochSeconds(g)
	if small <= 0 || big <= small {
		t.Fatalf("DGL epochs: small=%g big=%g", small, big)
	}
}

func TestDGLSlowerOnV100ThanA100(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom reddit generation: long e2e, skipped in -short")
	}
	g, scale := loadPhantom(t, "reddit")
	v := NewDGL(sim.DGXV100(), scale, 512, 2).EpochSeconds(g)
	a := NewDGL(sim.DGXA100(), scale, 512, 2).EpochSeconds(g)
	if a >= v {
		t.Fatalf("A100 (%g) should beat V100 (%g)", a, v)
	}
}

func TestDGLMemoryGrowsLinearlyWithLayers(t *testing.T) {
	g, scale := loadPhantom(t, "reddit")
	c10 := NewDGL(sim.DGXV100(), scale, 512, 10)
	c20 := NewDGL(sim.DGXV100(), scale, 512, 20)
	m10, m20 := c10.MemoryBytes(g), c20.MemoryBytes(g)
	growth := float64(m20-m10) / 10 // bytes per layer
	perLayer := float64(3 * int64(g.N()) * int64(scale) * 512 * 4)
	if growth < perLayer*0.9 || growth > perLayer*1.1 {
		t.Fatalf("DGL per-layer growth %g, want ~%g (3 buffers/layer)", growth, perLayer)
	}
}

// layersWithin returns the deepest model (up to 4096 layers) whose
// footprint, as mem(layers) reports it, fits budget; 0 when one layer does not.
func layersWithin(budget int64, mem func(layers int) int64) int {
	l := 0
	for l < 4096 && mem(l+1) <= budget {
		l++
	}
	return l
}

func TestFig12LayerBudgets(t *testing.T) {
	// Paper's Fig 12 readings at a 30 GiB budget on Reddit, hidden 512:
	// DGL fits ~20 layers and CAGNET(8 GPUs) ~150.
	g, scale := loadPhantom(t, "reddit")
	budget := int64(30) << 30
	dgl := layersWithin(budget, func(l int) int64 {
		return NewDGL(sim.DGXV100(), scale, 512, l).MemoryBytes(g)
	})
	if dgl < 14 || dgl > 28 {
		t.Fatalf("DGL max layers %d, paper ~20", dgl)
	}
	cag := layersWithin(budget, func(l int) int64 {
		dims := nn.LayerDims(g.FeatDim, 512, l, g.Classes)
		b, err := memcheck.AnalyticResident("cagnet", int64(g.N())*int64(scale), g.M()*int64(scale), dims, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
	if cag < 110 || cag > 230 {
		t.Fatalf("CAGNET max layers %d, paper ~150", cag)
	}
	if cag <= dgl {
		t.Fatalf("8-GPU CAGNET (%d) must fit more layers than 1-GPU DGL (%d)", cag, dgl)
	}
}

// cagnetEpoch runs one epoch of CAGNET (the full-batch trainer under
// CAGNET's switches) on g.
func cagnetEpoch(t *testing.T, g *graph.Graph, cfg core.Config) float64 {
	t.Helper()
	tr, err := core.NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	return stats.EpochSeconds
}

func TestCAGNETScalesWithGPUs(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom products sweep: long e2e, skipped in -short")
	}
	g, scale := loadPhantom(t, "products")
	prev := cagnetEpoch(t, g, CAGNET(core.DefaultConfig(sim.DGXV100(), 1, scale)))
	for _, p := range []int{2, 4, 8} {
		cur := cagnetEpoch(t, g, CAGNET(core.DefaultConfig(sim.DGXV100(), p, scale)))
		if cur >= prev {
			t.Fatalf("CAGNET did not scale at P=%d: %g -> %g", p, prev, cur)
		}
		prev = cur
	}
}

// TestCAGNETSlowerThanUnpenalizedKernels holds the derated machine to what
// it derates: every kernel and collective is slower than on the machine
// itself, so the epoch is.
func TestCAGNETSlowerThanUnpenalizedKernels(t *testing.T) {
	g, scale := loadPhantom(t, "arxiv")
	c := CAGNET(core.DefaultConfig(sim.DGXV100(), 4, scale))
	fast := c
	fast.Spec = sim.DGXV100()
	if cagnetEpoch(t, g, c) <= cagnetEpoch(t, g, fast) {
		t.Fatalf("efficiency penalties had no effect")
	}
	if raw, d := sim.DGXV100().GemmCost(1000, 512, 512), c.Spec.GemmCost(1000, 512, 512); math.Abs(d-(raw/0.85+100e-6)) > 1e-15 {
		t.Fatalf("derated GeMM costs %g, want raw/0.85 + 100 µs = %g", d, raw/0.85+100e-6)
	}
}

func TestSection51CrossoverViaCommTimes(t *testing.T) {
	// §5.1: 1.5D loses to 1D on DGX-1 (factor 3/2) and wins on DGX-A100
	// (factor 3/4).
	n, d := int64(1_000_000), int64(512)
	v, a := sim.DGXV100(), sim.DGXA100()
	rv := CommTime15D(v, n, d) / CommTime1D(v, n, d)
	if rv < 1.49 || rv > 1.51 {
		t.Fatalf("DGX-1 1.5D/1D ratio %v, want 1.5", rv)
	}
	ra := CommTime15D(a, n, d) / CommTime1D(a, n, d)
	if ra < 0.74 || ra > 0.76 {
		t.Fatalf("DGX-A100 1.5D/1D ratio %v, want 0.75", ra)
	}
}

func TestDistGNNTable2Anchors(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Table-2 datasets: long e2e, skipped in -short")
	}
	// The regenerated DistGNN numbers must land within ~3x of the paper's
	// quoted Table 2 for the small/medium datasets (Papers' quoted "1000"
	// is itself an estimate; we require only an order-of-magnitude match).
	cases := []struct {
		name       string
		hidden     int
		layers     int
		sockets    int
		paper      float64
		factorBand float64
	}{
		{"reddit", 16, 2, 1, 0.60, 3},
		{"products", 256, 3, 1, 11, 3},
		{"proteins", 256, 3, 1, 100, 3},
		{"products", 256, 3, 64, 1.74, 4},
		{"proteins", 256, 3, 64, 2.63, 4},
		{"papers", 256, 3, 1, 1000, 10},
		{"papers", 256, 3, 128, 36.45, 10},
	}
	for _, c := range cases {
		g, scale := loadPhantom(t, c.name)
		got := NewDistGNN(c.hidden, c.layers).EpochSeconds(g, scale, c.sockets)
		if got < c.paper/c.factorBand || got > c.paper*c.factorBand {
			t.Errorf("%s@%d sockets: %.2fs, paper %.2fs (band %gx)", c.name, c.sockets, got, c.paper, c.factorBand)
		}
	}
}

func TestDistGNNScalesOnLargeGraphsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom products+reddit generation: long e2e, skipped in -short")
	}
	// Products must speed up substantially from 1 to 64 sockets; Reddit
	// (tiny model, comm/sync bound) must not scale anywhere near linearly.
	gp, sp := loadPhantom(t, "products")
	prod := NewDistGNN(256, 3)
	if s := prod.EpochSeconds(gp, sp, 1) / prod.EpochSeconds(gp, sp, 64); s < 3 {
		t.Fatalf("products 64-socket speedup %v too low", s)
	}
	gr, sr := loadPhantom(t, "reddit")
	red := NewDistGNN(16, 2)
	if s := red.EpochSeconds(gr, sr, 1) / red.EpochSeconds(gr, sr, 16); s > 8 {
		t.Fatalf("reddit 16-socket speedup %v; paper shows none", s)
	}
}

func TestDGLAggregatesInNarrowWidth(t *testing.T) {
	// The width-aware order: a model whose hidden dim dwarfs the feature
	// dim must not pay hidden-width SpMM in layer 0.
	g, scale := loadPhantom(t, "arxiv")             // 128 features
	narrow := NewDGL(sim.DGXV100(), scale, 2048, 1) // single layer: SpMM at min(128, 40)
	wide := NewDGL(sim.DGXV100(), scale, 2048, 2)   // adds a 2048-wide layer
	if wide.EpochSeconds(g) < narrow.EpochSeconds(g)*1.5 {
		t.Fatalf("hidden-width layer should dominate: %g vs %g",
			wide.EpochSeconds(g), narrow.EpochSeconds(g))
	}
}
