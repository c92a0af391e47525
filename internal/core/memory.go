package core

import (
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
)

// EstimateMemoryBytesPerDevice predicts the per-device memory footprint of
// a trainer for the dataset at full scale (generated size x MemScale)
// without building one, by evaluating internal/memcheck's resident closed
// form under an analytic balanced-partition environment: CSR adjacency
// tiles in both orientations, the feature shard, the §4.2 slab set, and
// replicated model state. A strategy with replication factor c partitions
// into P/c blocks, so its per-device row count grows c-fold (1.5D: doubles).
// A configuration NewTrainer rejects yields the same error here.
func EstimateMemoryBytesPerDevice(g *graph.Graph, cfg Config) (int64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if err := validateTrainSplit(g); err != nil {
		return 0, err
	}
	S := int64(cfg.MemScale)
	n := int64(g.N()) * S
	m := g.M() * S
	blocks := cfg.P / cfg.Strategy.replicationFactor()
	rows := (n + int64(blocks) - 1) / int64(blocks)
	dims := nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)

	adj, err := memcheck.AnalyticAdjacencyBytes(n, m, blocks)
	if err != nil {
		return 0, err
	}
	fp, err := memcheck.PeakForm(cfg.Strategy.Name(), memcheck.Model{
		Dims: dims, P: cfg.P, Device: 0, Overlap: cfg.Overlap,
	})
	if err != nil {
		return 0, err
	}
	return fp.Resident.Eval(memcheck.DeviceEnv(rows, rows, adj, dims))
}
