package core

import (
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/nn"
	"mggcn/internal/tensor"
)

func TestGATDistMatchesSingleDevice(t *testing.T) {
	g := gen.Generate("gatdist", gen.DefaultBTER(150, 8, 55), 12, 4, false)
	model := nn.NewGAT(g, nn.LayerDims(g.FeatDim, 16, 2, g.Classes), 3)
	want := model.Forward(g.Features)
	for _, p := range []int{1, 2, 4, 8} {
		for _, ord := range []Ordering{OrderingNatural, OrderingRandom} {
			cfg := testConfig(p)
			cfg.Ordering = ord
			dist, err := NewGATDist(g, model, cfg)
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
			got, stats := mustGATForward(dist)
			if d := tensor.MaxAbsDiff(got, want); d > 1e-3 {
				t.Fatalf("P=%d %v: distributed GAT diverges by %g", p, ord, d)
			}
			if stats.EpochSeconds <= 0 {
				t.Fatalf("no simulated time")
			}
		}
	}
}

func TestGATDistPhantomTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom products epochs: long e2e, skipped in -short")
	}
	// Phantom mode: structure-only timing of the distributed GAT, scaling
	// with GPUs like the GCN does.
	g, spec, err := gen.Load("products", true)
	if err != nil {
		t.Fatal(err)
	}
	model := nn.NewGAT(g, nn.LayerDims(g.FeatDim, 512, 2, g.Classes), 1)
	prev := -1.0
	for _, p := range []int{1, 4} {
		cfg := DefaultConfig(testConfig(1).Spec, p, spec.Scale)
		dist, err := NewGATDist(g, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		logits, stats := mustGATForward(dist)
		if logits != nil {
			t.Fatalf("phantom run returned logits")
		}
		if prev > 0 && stats.EpochSeconds >= prev {
			t.Fatalf("distributed GAT did not scale: %g -> %g", prev, stats.EpochSeconds)
		}
		prev = stats.EpochSeconds
	}
}

func TestGATDistRejectsOtherStrategies(t *testing.T) {
	g := gen.Generate("gatdist-s", gen.DefaultBTER(80, 5, 56), 8, 3, false)
	model := nn.NewGAT(g, nn.LayerDims(g.FeatDim, 8, 2, g.Classes), 1)
	cfg := testConfig(2)
	cfg.Strategy = Strategy1DCol
	if _, err := NewGATDist(g, model, cfg); err == nil {
		t.Fatalf("non-row strategy accepted")
	}
}
