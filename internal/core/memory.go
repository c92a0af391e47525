package core

import (
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
	"mggcn/internal/sample"
)

// memcheckStrategy maps a core strategy onto internal/memcheck's registry
// names (the schedcheck naming convention).
func memcheckStrategy(s Strategy) string {
	switch s {
	case Strategy1DCol:
		return "1d-col"
	case Strategy15D:
		return "1.5d"
	default:
		return "1d-row"
	}
}

// EstimateMemoryBytesPerDevice predicts the per-device memory footprint of
// a trainer for the dataset at full scale (generated size x MemScale)
// without building one, by evaluating internal/memcheck's resident closed
// form under an analytic balanced-partition environment: adjacency tiles in
// both orientations (CSR row pointers, or SELL-C-σ chunk pointers plus the
// σ permutation array — padding-free, the one term only a built partition
// can measure), the feature shard, the §4.2 slab set, and replicated model
// state. 1.5D replicates each block across its group, so its per-device
// row count doubles. FormatAuto estimates as CSR, whose row-pointer cost
// upper-bounds the padding-free SELL tiles auto would convert.
func EstimateMemoryBytesPerDevice(g *graph.Graph, cfg Config) int64 {
	S := int64(cfg.MemScale)
	n := int64(g.N()) * S
	m := g.M() * S
	blocks := cfg.P / cfg.Strategy.replicationFactor()
	if blocks < 1 {
		blocks = 1
	}
	rows := (n + int64(blocks) - 1) / int64(blocks)
	dims := nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)

	format := "csr"
	if cfg.Format == FormatSELL {
		format = "sell"
	}
	adj, err := memcheck.AnalyticAdjacencyBytes(n, m, blocks, format)
	if err != nil {
		panic(err)
	}
	fp, err := memcheck.PeakForm(memcheckStrategy(cfg.Strategy), memcheck.Model{
		Dims: dims, P: maxInt(cfg.P, 1), Device: 0, Overlap: cfg.Overlap,
	})
	if err != nil {
		panic(err)
	}
	bytes, err := fp.Resident.Eval(memcheck.DeviceEnv(rows, rows, adj, dims))
	if err != nil {
		panic(err)
	}
	return bytes
}

// EstimateSampledMemoryBytesPerDevice predicts the sampled minibatch
// trainer's per-device footprint at full scale without building one:
// replicated model state, the degree-ordered feature-cache slab
// (CacheFrac of the full vertex set), and every pipeline slab at its
// provable frontier-capacity size (sample.FrontierCaps) — the same at
// either pipeline depth.
func EstimateSampledMemoryBytesPerDevice(g *graph.Graph, cfg SampledConfig) int64 {
	n := g.N() * maxInt(cfg.MemScale, 1)
	caps := sample.FrontierCaps(n, cfg.Batch, cfg.Fanouts)
	cacheRows := int(cfg.CacheFrac * float64(n))
	dims := nn.LayerDims(g.FeatDim, cfg.Hidden, len(cfg.Fanouts), g.Classes)
	depth := 1
	if cfg.Pipeline {
		depth = 2
	}
	fp, err := memcheck.PeakForm("sampled", memcheck.Model{
		Dims: dims, P: maxInt(cfg.P, 1), Device: 0,
		Caps: caps, Depth: depth,
	})
	if err != nil {
		panic(err)
	}
	bytes, err := fp.Resident.Eval(memcheck.SampledEnv(caps, cacheRows, dims))
	if err != nil {
		panic(err)
	}
	return bytes
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MaxLayersWithin returns the largest layer count whose estimated
// per-device footprint fits the byte budget (0 if none does) — the MG-GCN
// line of Fig 12.
func MaxLayersWithin(g *graph.Graph, cfg Config, budget int64) int {
	best := 0
	for l := 1; l <= 4096; l++ {
		trial := cfg
		trial.Layers = l
		if EstimateMemoryBytesPerDevice(g, trial) > budget {
			break
		}
		best = l
	}
	return best
}
