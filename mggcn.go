// Package mggcn is a Go reproduction of "MG-GCN: A Scalable multi-GPU GCN
// Training Framework" (Balın, Sancak, Çatalyürek — ICPP 2022): full-batch
// GCN training 1D-row-partitioned across the GPUs of a simulated DGX-class
// machine, with the paper's memory-buffer reuse (§4.2), communication/
// computation overlap (§4.3), kernel order switching and saved backward
// SpMM (§4.4), and random-permutation load balancing (§5.2).
//
// Because this module is pure Go and offline, GPUs, NVLink and the OGB
// datasets are replaced by faithful stand-ins (see DESIGN.md §2): kernels
// execute real float32 math on the CPU while a discrete-event scheduler
// with bandwidth contention prices every kernel and collective at
// paper-scale, and datasets are BTER-generated to Table 1's shape. Epoch
// times reported by this package are simulated seconds on the selected
// machine; losses and accuracies are real.
//
// Quick start:
//
//	ds, _ := mggcn.LoadDataset("reddit", false)
//	tr, _ := mggcn.NewTrainer(ds, mggcn.DefaultOptions(mggcn.DGXA100(), 8))
//	stats, _ := tr.Train(100)
//	for _, s := range stats {
//	    fmt.Println(s.Loss, s.TrainAcc, s.EpochSeconds)
//	}
package mggcn

import (
	"errors"
	"fmt"
	"io"

	"mggcn/internal/core"
	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/graphio"
	"mggcn/internal/sim"
	"mggcn/internal/trace"
)

// MachineSpec describes a multi-GPU node; build one with DGXV100 or
// DGXA100, or customize the fields for a hypothetical machine.
type MachineSpec = sim.MachineSpec

// DGXV100 returns the paper's NVIDIA DGX-1 (8x V100 32 GB, 6 NVLinks/GPU).
func DGXV100() MachineSpec { return sim.DGXV100() }

// DGXA100 returns the paper's NVIDIA DGX-A100 (8x A100 80 GB, NVSwitch).
func DGXA100() MachineSpec { return sim.DGXA100() }

// MultiNode joins nodes identical machines through a network delivering
// interNodeBW bytes/s per node (e.g. 12.5e9 for HDR InfiniBand).
// Collectives that span nodes are bottlenecked by the NIC — the scaling
// wall that kept CAGNET at a single node and that the paper's multi-GPU
// cluster extension (§7, future work) would have to overcome. A cluster of
// no nodes, or GPUs spanning nodes with no bandwidth between them, is an
// error from NewTrainer / NewSampledTrainer, not from here.
func MultiNode(spec MachineSpec, nodes int, interNodeBW float64) MachineSpec {
	return sim.MultiNode(spec, nodes, interNodeBW)
}

// EpochStats reports one training epoch: simulated epoch seconds on the
// machine, the per-kind time breakdown, and (in non-phantom mode) the real
// loss and training accuracy.
type EpochStats = core.EpochStats

// Strategy selects the distributed SpMM algorithm of §4.1/§5.1.
type Strategy = core.Strategy

// The available partitioning strategies.
const (
	Strategy1DRow = core.Strategy1DRow // broadcast-based (the paper's)
	Strategy1DCol = core.Strategy1DCol // reduction-based alternative
	Strategy15D   = core.Strategy15D   // CAGNET 1.5D, replication 2
)

// Ordering selects the vertex ordering applied before partitioning.
type Ordering = core.Ordering

// The available vertex orderings (§5.2 ablation). The zero value is the
// natural order; DefaultOptions picks OrderingRandom, the paper's choice.
const (
	OrderingNatural      = core.OrderingNatural
	OrderingRandom       = core.OrderingRandom
	OrderingDegreeSorted = core.OrderingDegreeSorted
	OrderingBFS          = core.OrderingBFS
	OrderingBlockCyclic  = core.OrderingBlockCyclic
)

// Dataset is a benchmark graph bound to its full-scale statistics and the
// generation scale divisor (DESIGN.md §2).
type Dataset struct {
	g     *graph.Graph
	scale int
	spec  gen.DatasetSpec
}

// DatasetNames lists the Table-1 catalog names.
func DatasetNames() []string { return gen.AllNames() }

// LoadDataset generates (with caching) a catalog dataset. Phantom datasets
// carry graph structure only — enough for timing and memory experiments —
// and are the only practical choice for the large graphs; non-phantom
// datasets include features, labels and splits for real training.
func LoadDataset(name string, phantom bool) (*Dataset, error) {
	g, spec, err := gen.Load(name, phantom)
	if err != nil {
		return nil, err
	}
	return &Dataset{g: g, scale: spec.Scale, spec: spec}, nil
}

// DegreeScaledDataset returns the Fig-9 synthetic family member: the Arxiv
// degree profile with average degree multiplied by factor at fixed n. It
// panics when factor < 1.
func DegreeScaledDataset(factor int, phantom bool) *Dataset {
	g, spec := gen.LoadDegreeScaled(factor, phantom)
	return &Dataset{g: g, scale: spec.Scale, spec: spec}
}

// SynthesizeDataset generates a custom BTER dataset at scale 1. It panics
// when n, avgDegree, featDim or classes is not positive; a caller passing
// values from outside the program checks them first, as mggcn-train does.
func SynthesizeDataset(name string, n int, avgDegree float64, featDim, classes int, seed uint64, phantom bool) *Dataset {
	cfg := gen.DefaultBTER(n, avgDegree, seed)
	g := gen.Generate(name, cfg, featDim, classes, phantom)
	return &Dataset{
		g: g, scale: 1,
		spec: gen.DatasetSpec{
			Name: name, FullN: int64(n), FullM: g.M(),
			FeatDim: featDim, Classes: classes, AvgDegree: avgDegree, Scale: 1, Seed: seed,
		},
	}
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.g.Name }

// N returns the generated vertex count; FullN the paper-scale count.
func (d *Dataset) N() int { return d.g.N() }

// FullN returns the paper-scale vertex count (N times the scale divisor).
func (d *Dataset) FullN() int64 { return int64(d.g.N()) * int64(d.scale) }

// M returns the generated directed edge count.
func (d *Dataset) M() int64 { return d.g.M() }

// AvgDegree returns edges per vertex (preserved across scaling).
func (d *Dataset) AvgDegree() float64 { return d.g.AvgDegree() }

// Scale returns the generation divisor relative to the paper's dataset.
func (d *Dataset) Scale() int { return d.scale }

// FeatDim and Classes return the model-facing dimensions.
func (d *Dataset) FeatDim() int { return d.g.FeatDim }

// Classes returns the label count.
func (d *Dataset) Classes() int { return d.g.Classes }

// IsPhantom reports whether the dataset is structure-only.
func (d *Dataset) IsPhantom() bool { return d.g.IsPhantom() }

// WriteBinary serializes the dataset (structure, features, labels, splits)
// to w in the module's binary format.
func (d *Dataset) WriteBinary(w io.Writer) error { return graphio.WriteBinary(w, d.g) }

// ReadDataset deserializes a dataset written by WriteBinary. The scale
// divisor is not stored in the format; pass the one the dataset was
// generated with (1 for unscaled data).
func ReadDataset(r io.Reader, scale int) (*Dataset, error) {
	g, err := graphio.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	if scale < 1 {
		scale = 1
	}
	return &Dataset{
		g: g, scale: scale,
		spec: gen.DatasetSpec{
			Name: g.Name, FullN: int64(g.N()) * int64(scale),
			FullM: g.M() * int64(scale), FeatDim: g.FeatDim, Classes: g.Classes,
			AvgDegree: g.AvgDegree(), Scale: scale,
		},
	}, nil
}

// Options configures a training run. Zero values are not usable; start
// from DefaultOptions.
type Options struct {
	Machine MachineSpec
	GPUs    int

	Hidden int
	Layers int
	LR     float64

	// Strategy selects the distributed SpMM algorithm: Strategy1DRow (the
	// paper's choice, the default), Strategy1DCol, or Strategy15D.
	Strategy Strategy

	// The paper's optimizations, all enabled by DefaultOptions. §4.4's
	// GeMM/SpMM order switch is always on: every layer aggregates at the
	// narrower of its two widths.
	Ordering              Ordering // §5.2 vertex ordering: OrderingRandom permutes
	Overlap               bool     // §4.3 communication/computation overlap
	SkipFirstBackwardSpMM bool     // §4.4 saved first-layer backward SpMM

	// BalancedPartition cuts partitions at equal total degree instead of
	// equal vertex counts — an alternative load balancer to permutation.
	BalancedPartition bool

	Seed     int64
	PermSeed uint64

	// ExecWorkers is how many recorded task closures the epoch executor may
	// replay concurrently (<=0: GOMAXPROCS; 1: serial issue). Independent
	// tasks — different devices, comm vs compute — run in parallel on the
	// shared pool, mirroring the multi-GPU concurrency the simulator
	// prices. Results are bit-identical at any setting.
	ExecWorkers int
}

// DefaultOptions returns the full MG-GCN configuration on the machine:
// model A of §6 (2 layers, hidden 512) with every optimization enabled.
func DefaultOptions(m MachineSpec, gpus int) Options {
	return Options{
		Machine: m, GPUs: gpus,
		Hidden: 512, Layers: 2, LR: 0.01,
		Ordering: OrderingRandom, Overlap: true, SkipFirstBackwardSpMM: true,
		Seed: 1, PermSeed: 1,
	}
}

// Trainer is a distributed MG-GCN training run.
type Trainer struct {
	inner *core.Trainer
	ds    *Dataset
}

// NewTrainer partitions the dataset across the machine's GPUs and
// allocates the L+3 buffer set; it fails with an out-of-memory error
// (check with IsOOM) when the configuration does not fit the machine.
func NewTrainer(ds *Dataset, o Options) (*Trainer, error) {
	cfg, err := o.coreConfig(ds)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewTrainer(ds.g, cfg)
	if err != nil {
		return nil, err
	}
	return &Trainer{inner: inner, ds: ds}, nil
}

// coreConfig is the one mapping from the public options to the trainer's
// configuration for ds; NewTrainer and the memory estimator both go
// through it.
func (o Options) coreConfig(ds *Dataset) (core.Config, error) {
	if o.GPUs < 1 {
		return core.Config{}, fmt.Errorf("mggcn: GPUs must be >= 1")
	}
	cfg := core.Config{
		Spec: o.Machine, P: o.GPUs, MemScale: ds.scale,
		Hidden: o.Hidden, Layers: o.Layers, LR: o.LR,
		Strategy: o.Strategy, Ordering: o.Ordering, BalancedPartition: o.BalancedPartition,
		PermSeed: o.PermSeed, Overlap: o.Overlap,
		SkipFirstBackward: o.SkipFirstBackwardSpMM, Seed: o.Seed,
	}
	cfg.ExecWorkers = o.ExecWorkers
	return cfg, nil
}

// runEpoch builds a trainer for ds under o and runs one epoch: every
// full-batch cell of the experiments and Timeline. A configuration that does
// not fit the machine fails NewTrainer, so its error satisfies IsOOM.
func runEpoch(ds *Dataset, o Options) (*Trainer, *EpochStats, error) {
	tr, err := NewTrainer(ds, o)
	if err != nil {
		return nil, nil, err
	}
	stats, err := tr.RunEpoch()
	return tr, stats, err
}

// RunEpoch performs one full-batch training step. A non-nil error means
// the epoch did not complete (a failed task or numeric corruption) and the
// model state is suspect.
func (t *Trainer) RunEpoch() (*EpochStats, error) { return t.inner.RunEpoch() }

// Train runs the given number of epochs and returns per-epoch stats. The
// first epoch failure stops the run, returning the completed epochs' stats
// alongside the error.
func (t *Trainer) Train(epochs int) ([]*EpochStats, error) { return t.inner.Train(epochs) }

// SaveCheckpoint writes the model weights and optimizer state to w so a
// later run can resume exactly where this one stopped.
func (t *Trainer) SaveCheckpoint(w io.Writer) error { return t.inner.SaveCheckpoint(w) }

// LoadCheckpoint restores state saved by SaveCheckpoint; the trainer's
// model shape must match the checkpoint's.
func (t *Trainer) LoadCheckpoint(r io.Reader) error { return t.inner.LoadCheckpoint(r) }

// PeakMemoryBytes returns the per-device peak memory at generated scale;
// multiply by Dataset.Scale() for the paper-scale figure.
func (t *Trainer) PeakMemoryBytes() int64 { return t.inner.PeakMemoryBytes() }

// BufferCount returns the number of large per-device buffers (L+3).
func (t *Trainer) BufferCount() int { return t.inner.BufferCount() }

// EstimateMemoryBytesPerDevice predicts the paper-scale per-device memory
// footprint of a configuration without building a trainer. Options that
// NewTrainer rejects yield the same error.
func EstimateMemoryBytesPerDevice(ds *Dataset, o Options) (int64, error) {
	cfg, err := o.coreConfig(ds)
	if err != nil {
		return 0, err
	}
	return core.EstimateMemoryBytesPerDevice(ds.g, cfg)
}

// SampledEpochStats reports one sampled-minibatch epoch: simulated epoch
// seconds, per-kind busy time, mean training loss over the epoch's
// batches, and the per-device stream overlap ratio (>1 means the sampler
// stream genuinely ran concurrently with training).
type SampledEpochStats = core.SampledEpochStats

// SampledOptions configures a sampled-minibatch training run (the
// factored sampler/trainer pipeline). Zero values are not usable; start
// from DefaultSampledOptions.
type SampledOptions struct {
	Machine MachineSpec
	GPUs    int

	Hidden int
	Layers int
	LR     float64

	// Batch is the number of target vertices per minibatch; batches are
	// dealt round-robin across the GPUs, so one step trains GPUs batches.
	Batch int
	// Fanouts[l] bounds layer l's neighbor sample, outermost first; its
	// length must equal Layers.
	Fanouts []int
	// CacheFrac is the fraction of vertices whose feature rows each device
	// caches in a degree-ordered static slab (hottest first); misses
	// gather from host memory over the host link. 0 disables caching.
	CacheFrac float64
	// Pipeline double-buffers the sampler→trainer handoff so sampling and
	// feature extraction for step s+1 overlap step s's training. Results
	// are bit-identical on or off; only the schedule changes.
	Pipeline bool

	Seed        int64
	ExecWorkers int

	// TrackVal computes per-epoch validation accuracy with a host-side
	// sampled forward over the dataset's val mask — statistics only, never
	// part of the task graph or its determinism.
	TrackVal bool
	// EarlyStopPatience > 0 stops Train after that many consecutive epochs
	// without a validation-accuracy improvement (implies TrackVal).
	EarlyStopPatience int
}

// DefaultSampledOptions returns the GNNLab-style sampled configuration:
// 3 layers at fanout [5,10,15], hidden 128, batch 512, half the vertices
// cached, pipelining on.
func DefaultSampledOptions(m MachineSpec, gpus int) SampledOptions {
	return SampledOptions{
		Machine: m, GPUs: gpus,
		Hidden: 128, Layers: 3, LR: 0.01,
		Batch: 512, Fanouts: []int{5, 10, 15},
		CacheFrac: 0.5, Pipeline: true, Seed: 1,
	}
}

// SampledTrainer is a distributed sampled-minibatch training run: a
// sampler stage producing k-hop blocks feeds per-device trainer stages
// through a double-buffered handoff, with feature gathers served from
// degree-ordered per-device caches. Fixed seeds give bit-identical runs
// at any replay parallelism, exactly like the full-batch Trainer.
type SampledTrainer struct {
	inner *core.SampledTrainer
	ds    *Dataset
}

// NewSampledTrainer builds the replicated model and per-device feature
// caches. On a phantom dataset its epochs are scheduled at the real run's
// costs but not computed: loss, accuracy and validation stay 0.
func NewSampledTrainer(ds *Dataset, o SampledOptions) (*SampledTrainer, error) {
	if o.GPUs < 1 {
		return nil, fmt.Errorf("mggcn: GPUs must be >= 1")
	}
	cfg := core.SampledConfig{
		Spec: o.Machine, P: o.GPUs, MemScale: ds.scale,
		Hidden: o.Hidden, Layers: o.Layers, LR: o.LR,
		Batch: o.Batch, Fanouts: o.Fanouts,
		CacheFrac: o.CacheFrac, Pipeline: o.Pipeline,
		Seed:     o.Seed,
		TrackVal: o.TrackVal, EarlyStopPatience: o.EarlyStopPatience,
	}
	cfg.ExecWorkers = o.ExecWorkers
	inner, err := core.NewSampledTrainer(ds.g, cfg)
	if err != nil {
		return nil, err
	}
	return &SampledTrainer{inner: inner, ds: ds}, nil
}

// RunEpoch consumes one deterministic epoch plan — every training vertex
// appears in exactly one batch — and returns the epoch's statistics.
func (t *SampledTrainer) RunEpoch() (*SampledEpochStats, error) { return t.inner.RunEpoch() }

// Train runs the given number of sampled epochs; the first failure stops
// the run, returning the completed epochs' stats alongside the error.
func (t *SampledTrainer) Train(epochs int) ([]*SampledEpochStats, error) {
	return t.inner.Train(epochs)
}

// SaveCheckpoint writes the sampler cursor (seed, epoch, next batch) plus
// model and optimizer state to w; restoring it resumes mid-epoch
// bit-identically.
func (t *SampledTrainer) SaveCheckpoint(w io.Writer) error { return t.inner.SaveCheckpoint(w) }

// LoadCheckpoint restores state saved by SampledTrainer.SaveCheckpoint. The
// trainer's model shape and sampling seed must match the checkpoint's;
// full-batch checkpoints are rejected with a version error.
func (t *SampledTrainer) LoadCheckpoint(r io.Reader) error { return t.inner.LoadCheckpoint(r) }

// SaveCheckpointAtomic writes a checkpoint through save to a temp file next
// to path and renames it into place, so a crash mid-write leaves the
// previous checkpoint intact. Pass a Trainer's or SampledTrainer's
// SaveCheckpoint method as save.
func SaveCheckpointAtomic(path string, save func(w io.Writer) error) error {
	return core.SaveCheckpointAtomic(path, save)
}

// IsOOM reports whether err is a device out-of-memory failure.
func IsOOM(err error) bool {
	var oom *sim.OOMError
	return errors.As(err, &oom)
}

// Timeline runs one epoch on the dataset under the options and renders the
// ASCII Gantt chart of the tasks whose labels contain phase (e.g.
// "fwd0/spmm") — the paper's Fig 6/8 visualization for any configuration.
// Returns the chart text and the simulated epoch seconds.
func Timeline(ds *Dataset, o Options, phase string, width int) (string, float64, error) {
	_, stats, err := runEpoch(ds, o)
	if err != nil {
		return "", 0, err
	}
	spans := trace.Extract(stats.Tasks, stats.Sched, phase)
	return trace.Gantt(spans, o.GPUs, width), stats.EpochSeconds, nil
}
