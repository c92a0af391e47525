package core

import (
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
)

// EstimateMemoryBytesPerDevice predicts the per-device memory footprint of
// a trainer for the dataset at full scale (generated size x MemScale)
// without building one, by evaluating internal/memcheck's resident closed
// form at an analytic balanced partition (memcheck.AnalyticResident): CSR
// adjacency tiles in both orientations, the feature shard, the §4.2 slab
// set, and replicated model state. A strategy with replication factor c
// partitions into P/c blocks, so its per-device row count grows c-fold
// (1.5D: doubles). A configuration NewTrainer rejects yields the same error
// here.
func EstimateMemoryBytesPerDevice(g *graph.Graph, cfg Config) (int64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if err := validateTrainSplit(g); err != nil {
		return 0, err
	}
	S := int64(cfg.MemScale)
	dims := nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)
	return memcheck.AnalyticResident(cfg.Strategy.Name(), int64(g.N())*S, g.M()*S, dims, cfg.P, cfg.Overlap)
}
