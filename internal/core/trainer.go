package core

import (
	"fmt"
	"math"

	"mggcn/internal/comm"
	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// Config selects the machine, parallelism and the paper's optimizations.
type Config struct {
	Spec     sim.MachineSpec
	P        int // number of GPUs
	MemScale int // memory divisor matching the dataset scale

	Hidden int // hidden layer width
	Layers int // layer count L
	LR     float64

	// Strategy selects the distributed SpMM algorithm (§4.1/§5.1):
	// 1D-row broadcast (the paper's choice, default), 1D-col reduce, or
	// CAGNET-style 1.5D with replication factor 2.
	Strategy Strategy

	// Ordering is the vertex ordering applied before partitioning: the zero
	// value keeps the natural order, OrderingRandom is §5.2's random
	// permutation (the default), the rest are the design-choice ablation.
	// PermSeed seeds the random permutation and the BFS root.
	Ordering Ordering
	PermSeed uint64
	// BalancedPartition cuts the partition vector at near-equal total
	// degree instead of equal vertex counts — an alternative load balancer
	// to permutation (combinable with any ordering).
	BalancedPartition bool
	Overlap           bool // §4.3 comm/compute overlap
	SkipFirstBackward bool // §4.4 saved first-layer backward SpMM

	Seed int64 // weight initialization seed
	// The execution environment: ExecWorkers, ExecSeed, ExecObserver,
	// Fault, CommMeter.
	execEnv
}

// DefaultConfig returns the full MG-GCN configuration (all optimizations
// on) for the given machine, GPU count and memory scale.
func DefaultConfig(spec sim.MachineSpec, p, memScale int) Config {
	return Config{
		Spec: spec, P: p, MemScale: memScale,
		Hidden: 512, Layers: 2, LR: 0.01,
		Ordering: OrderingRandom, PermSeed: 1, Overlap: true,
		SkipFirstBackward: true, Seed: 1,
	}
}

// validate rejects the configurations no trainer can be built for; the
// memory estimator applies the same check, so the two agree on what is an
// error.
func (cfg Config) validate() error {
	if err := validateModelOnMachine(cfg.Spec, cfg.P, cfg.MemScale, cfg.Layers, cfg.Hidden, cfg.LR); err != nil {
		return err
	}
	if err := cfg.Ordering.validate(); err != nil {
		return err
	}
	return cfg.Strategy.validate(cfg.P)
}

// validateModelOnMachine holds the checks the full-batch and sampled
// configurations share: the machine has the GPUs asked for and, where they
// span nodes, a network between them (at 0 B/s the first collective never
// ends), the memory scale is a divisor, the model has at least one layer of
// positive width, and the learning rate is finite and not negative (a negative
// one climbs the loss, a NaN or an infinity reaches every weight in the first
// Adam step; 0 trains nothing, which a caller may mean).
func validateModelOnMachine(spec sim.MachineSpec, p, memScale, layers, hidden int, lr float64) error {
	if p < 1 || p > spec.NumGPUs {
		return fmt.Errorf("core: %d GPUs requested, %s has %d", p, spec.Name, spec.NumGPUs)
	}
	if p > spec.GPUsPerNode() && !(spec.InterNodeBW > 0) {
		return fmt.Errorf("core: %d GPUs span nodes of %s, which has no inter-node bandwidth", p, spec.Name)
	}
	if memScale < 1 {
		return fmt.Errorf("core: memScale %d < 1", memScale)
	}
	if layers < 1 {
		return fmt.Errorf("core: need at least 1 layer")
	}
	if hidden < 1 {
		return fmt.Errorf("core: hidden width %d < 1", hidden)
	}
	if !(lr >= 0) || math.IsInf(lr, 1) {
		return fmt.Errorf("core: learning rate %g is not a finite number >= 0", lr)
	}
	return nil
}

// validateTrainSplit rejects a materialized dataset whose training mask
// selects no vertex: there is no loss to compute, and a run over it would
// report a perfect-looking Loss = 0 forever. A nil mask trains on every
// vertex; phantom datasets are timed, not trained, and pass.
func validateTrainSplit(g *graph.Graph) error {
	if !g.IsPhantom() && g.TrainMask != nil && nn.MaskCount(g.TrainMask, 0) == 0 {
		return fmt.Errorf("core: dataset has no training vertices")
	}
	return nil
}

// Trainer is a distributed MG-GCN training run bound to one dataset and
// machine. Create with NewTrainer; each RunEpoch performs one full-batch
// step and returns its statistics (simulated time, breakdown, accuracy).
type Trainer struct {
	Cfg   Config
	Graph *graph.Graph
	Dims  []int

	// replicas is the replicated model on its machine (Machine, the buffer
	// registry and the last replayed graph come with it); the embedded
	// partition is the distributed dataset.
	replicas
	*partitioned
	// trainCount is the global number of training vertices (the loss
	// normalizer shared by every device); testCount the held-out count.
	trainCount int
	testCount  int
}

// NewTrainer partitions the dataset, allocates the §4.2 buffer set, and
// replicates the model. It returns the pool's *sim.OOMError (wrapped) when
// the configuration does not fit — the paper's out-of-memory outcomes.
func NewTrainer(g *graph.Graph, cfg Config) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := validateTrainSplit(g); err != nil {
		return nil, err
	}
	rp := newReplayer(cfg.Spec, cfg.P, cfg.MemScale, g.IsPhantom())
	p, err := partitionGraph(g, rp.Machine, cfg.Strategy, cfg.Ordering, cfg.BalancedPartition, cfg.PermSeed)
	if err != nil {
		return nil, err
	}
	dims := nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)
	init := nn.InitWeights(dims, cfg.Seed)
	tr := &Trainer{
		Cfg: cfg, Graph: g, Dims: dims, partitioned: p,
		replicas: newReplicas(rp, init),
	}
	maxTile := p.MaxTileRows()
	for d := 0; d < tr.Machine.P; d++ {
		bufs, err := NewDeviceBuffers(tr.reg, d, tr.Machine.Pools[d], p.devs[d].rows, maxTile, tr.Dims, cfg.Strategy, tr.phantom)
		if err != nil {
			return nil, err
		}
		p.devs[d].bufs = bufs
		if err := tr.add(init, cfg.LR); err != nil {
			return nil, err
		}
		// Feature shards are keyed by block, not device: 1.5D replica
		// devices view the same storage, and registry identity must follow
		// storage identity (aliased entries would poison each other in
		// shadow mode).
		registerDense(tr.reg, tr.reg.Register(fmt.Sprintf("b%d/x", p.devs[d].block)), p.devs[d].x)
	}
	if !tr.phantom {
		for _, ds := range p.devs {
			tr.trainCount += nn.MaskCount(ds.mask, ds.rows)
			if ds.testMask != nil {
				tr.testCount += nn.MaskCount(ds.testMask, 0)
			}
		}
	}
	return tr, nil
}

// EpochStats reports one epoch of any trainer — or, on the sampled trainer
// after a mid-epoch resume, the remaining segment of one: loss and accuracy
// are normalized over the rows the call actually processed.
type EpochStats struct {
	// EpochSeconds is the simulated wall-clock of the whole step.
	EpochSeconds float64
	// KindBusy is per-kind busy time summed over devices (Fig 5's bars).
	KindBusy map[sim.Kind]float64
	Loss     float64
	TrainAcc float64
	// TestAcc is the held-out accuracy (0 when the dataset has no test
	// mask, in phantom mode, and on the sampled trainer).
	TestAcc float64
	// ValAcc is the validation accuracy after a sampled epoch completed,
	// filled only when the config tracks validation (TrackVal or a patience)
	// and the graph has validation vertices; otherwise it stays 0.
	ValAcc float64
	// Batches is the number of minibatches the call trained (0 full-batch).
	Batches int
	// OverlapRatio is the mean over devices of summed per-stream busy time
	// divided by the makespan — how many of a device's streams are busy at
	// once on average. Full-batch it measures §4.3's comm/compute overlap;
	// sampled, ~1 when the stages serialize and >1 when the sampler stream
	// genuinely overlaps training.
	OverlapRatio float64
	// Tasks and Sched expose the raw timeline for the Gantt figures.
	Tasks []*sim.Task
	Sched *sim.Schedule
}

// BreakdownPercent returns KindBusy as percentages of its sim.Kinds-ordered sum.
func (s *EpochStats) BreakdownPercent() map[sim.Kind]float64 {
	var total float64
	for _, k := range sim.Kinds() {
		total += s.KindBusy[k]
	}
	out := make(map[sim.Kind]float64, len(s.KindBusy))
	for k, v := range s.KindBusy {
		if total > 0 {
			out[k] = 100 * v / total
		}
	}
	return out
}

// runLog collects a run's per-epoch stats. Only the newest entry keeps its
// task/schedule payload, so whichever epoch turns out to be the last —
// through completion, early stopping or a failure — still has its timeline.
// With patience > 0, add also tracks early stopping.
type runLog struct {
	stats    []*EpochStats
	patience int
	best     float64
	stale    int
}

// add appends s and reports whether patience consecutive epochs have now
// passed without improving on the best validation accuracy.
func (l *runLog) add(s *EpochStats) (stop bool) {
	if n := len(l.stats); n > 0 {
		l.stats[n-1].Tasks, l.stats[n-1].Sched = nil, nil
	}
	l.stats = append(l.stats, s)
	if l.patience <= 0 {
		return false
	}
	if len(l.stats) == 1 || s.ValAcc > l.best {
		l.best, l.stale = s.ValAcc, 0
		return false
	}
	l.stale++
	return l.stale >= l.patience
}

// recordForward records the L forward layers — per layer the GeMM and the
// distributed SpMM in §4.4's cheaper order, then the ReLU on all but the
// last — and returns the per-device tasks the logits are ready after.
func (tr *Trainer) recordForward(tg *sim.Graph, cg *comm.Group) []int {
	L := tr.Cfg.Layers
	rec := layerRecorder{tr.partitioned, &tr.replayer}
	hReady := make([]int, tr.Machine.P)
	for i := range hReady {
		hReady[i] = -1
	}

	for l := 0; l < L; l++ {
		dIn, dOut := tr.Dims[l], tr.Dims[l+1]
		input := func(i int) *tensor.Dense { return tr.inputView(i, l, tr.Dims) }
		out := tr.ahwView(l, dOut)
		// gemm records dst_i = src_i · W_l on every device i after ready[i].
		gemm := func(src, dst func(int) *tensor.Dense, ready []int) []int {
			return rec.compute(tg, sim.KindGeMM, fmt.Sprintf("fwd%d/gemm", l), false, ready,
				func(i int) float64 { return tr.Machine.Spec.GemmCost(tr.s(tr.devs[i].rows), dIn, dOut) },
				func(i, id int) {
					in, w, z := src(i), tr.weights[i][l], dst(i)
					tg.BindShaped(id, sim.ShapesOf(in, w), sim.ShapesOf(z),
						func() { tensor.ParallelGemm(1, in, w, 0, z, 0) })
				})
		}
		// spmm records dst = Âᵀ · src at the given width after ready.
		spmm := func(src, dst func(int) *tensor.Dense, width int, ready []int) []int {
			return rec.distSpMM(tg, cg, spmmArgs{
				label: fmt.Sprintf("fwd%d/spmm", l), src: src, dst: dst,
				width: width, srcReady: ready, overlap: tr.Cfg.Overlap,
			})
		}
		var next []int
		if dIn < dOut {
			// §4.4: aggregate in the narrower dimension first:
			// AH = Âᵀ H (width dIn), then AHW = (AH) W.
			next = gemm(tr.hwView(dIn), out, spmm(input, tr.hwView(dIn), dIn, hReady))
		} else {
			next = spmm(tr.hwView(dOut), out, dOut, gemm(input, tr.hwView(dOut), hReady))
		}
		if l < L-1 {
			next = rec.relu(tg, fmt.Sprintf("fwd%d/relu", l), l, dOut, next)
		}
		hReady = next
	}
	return hReady
}

// RunEpoch performs one full-batch training step: L forward layers, the
// loss, L backward layers with per-layer gradient all-reduce, and the Adam
// update, recording every kernel and collective into a task graph whose
// schedule yields the simulated epoch time.
//
// A non-nil error means the epoch did not complete and the model state is
// suspect: a *sim.TaskError wrapping the first task failure (unwrap to
// *sim.DeviceLostError for permanent device loss, *sim.GiveUpError for an
// exhausted collective), or a *NumericError when the step produced
// non-finite loss or weights. TrainElastic recovers from the recoverable
// ones; callers using RunEpoch directly should stop training.
func (tr *Trainer) RunEpoch() (*EpochStats, error) {
	return tr.epoch(&tr.Cfg.execEnv, tr.recordStep)
}

// recordStep records the training step RunEpoch replays and returns its
// fold: the per-device loss slots summed into the stats, then the numeric
// guard.
func (tr *Trainer) recordStep(tg *sim.Graph, cg *comm.Group) func(*EpochStats) error {
	p := tr.Machine.P
	spec := tr.Machine.Spec
	L := tr.Cfg.Layers
	rec := layerRecorder{tr.partitioned, &tr.replayer}
	rows := func(i int) int { return tr.s(tr.devs[i].rows) }

	hReady := tr.recordForward(tg, cg)

	// --- Loss ---
	// Each device's loss task computes accuracy and the loss gradient for
	// its own vertex shard into a private slot; the slots are summed after
	// the replay so concurrent replay stays deterministic.
	classes := tr.Dims[L]
	lossSum := make([]float64, p)
	lossCorrect := make([]int, p)
	lossTestCorrect := make([]int, p)
	gReady := rec.compute(tg, sim.KindLoss, "loss", true, hReady,
		func(i int) float64 { return spec.LossCost(rows(i), classes) },
		func(i, id int) {
			ds := tr.devs[i]
			logits := tr.ahwView(L-1, classes)(i)
			// The loss writes the gradient over its logits in place; the
			// label/mask shards and per-device loss slots are host-side and
			// unregistered.
			tg.BindShaped(id, nil, sim.ShapesOf(logits), func() {
				lossSum[i], lossCorrect[i], lossTestCorrect[i] = nn.SoftmaxCrossEntropySum(logits, ds.labels, ds.mask, ds.testMask, logits, tr.trainCount)
			})
		})

	// --- Backward ---
	var lastAllReduce = -1
	for l := L - 1; l >= 0; l-- {
		dIn, dOut := tr.Dims[l], tr.Dims[l+1]
		// eq. (8): mask the incoming gradient by the forward activation.
		if l < L-1 {
			gReady = rec.compute(tg, sim.KindActivation, fmt.Sprintf("bwd%d/relu", l), true, gReady,
				func(i int) float64 { return spec.ElementwiseCost(int64(rows(i))*int64(dOut), 2) },
				func(i, id int) {
					gIn, act := tr.ahwView(l+1, dOut)(i), tr.ahwView(l, dOut)(i)
					tg.BindShaped(id, sim.ShapesOf(gIn), sim.ShapesOf(act),
						func() { tensor.ReLUBackward(act, gIn, act) })
				})
		}
		// eq. (9): HW_G = Â AHW_G — skipped for layer 0 when the §4.4
		// identity-scaling argument applies (input gradients not needed).
		hwgReady := gReady
		hwg := tr.hwView(dOut)
		if l == 0 && tr.Cfg.SkipFirstBackward {
			hwg = tr.ahwView(0, dOut)
		} else {
			hwgReady = rec.distSpMM(tg, cg, spmmArgs{
				label: fmt.Sprintf("bwd%d/spmm", l), backward: true,
				src: tr.ahwView(l, dOut), dst: hwg,
				width: dOut, srcReady: gReady, overlap: tr.Cfg.Overlap,
			})
		}
		// eq. (10): per-device partial W_G = Hᵀ HW_G, then all-reduce.
		wgID := rec.compute(tg, sim.KindGeMM, fmt.Sprintf("bwd%d/wgrad", l), false, hwgReady,
			func(i int) float64 { return spec.GemmCost(dIn, rows(i), dOut) },
			func(i, id int) {
				in, hg, grad := tr.inputView(i, l, tr.Dims), hwg(i), tr.grads[i][l]
				tg.BindShaped(id, sim.ShapesOf(in, hg), sim.ShapesOf(grad),
					func() { tensor.ParallelGemmTA(1, in, hg, 0, grad, 0) })
			})
		lastAllReduce = tr.allReduceGrads(cg, l, fmt.Sprintf("bwd%d/allreduce", l), wgID)
		// eq. (11): H_G = HW_G Wᵀ for the next (lower) layer.
		if l > 0 {
			gReady = rec.compute(tg, sim.KindGeMM, fmt.Sprintf("bwd%d/hgrad", l), false, hwgReady,
				func(i int) float64 { return spec.GemmCost(rows(i), dOut, dIn) },
				func(i, id int) {
					hg, w, hgOut := hwg(i), tr.weights[i][l], tr.ahwView(l, dIn)(i)
					tg.BindShaped(id, sim.ShapesOf(hg, w), sim.ShapesOf(hgOut),
						func() { tensor.ParallelGemmTB(1, hg, w, 0, hgOut, 0) })
				})
		}
	}

	// --- Optimizer: the epoch's terminal tasks, nothing runs after Adam ---
	tr.recordAdam(tg, "adam", lastAllReduce, nil)

	return func(stats *EpochStats) error {
		if tr.trainCount > 0 { // phantom datasets have no masks to count
			var correct, testCorrect int
			for i := 0; i < p; i++ {
				stats.Loss += lossSum[i]
				correct += lossCorrect[i]
				testCorrect += lossTestCorrect[i]
			}
			stats.Loss /= float64(tr.trainCount)
			stats.TrainAcc = float64(correct) / float64(tr.trainCount)
			if tr.testCount > 0 {
				stats.TestAcc = float64(testCorrect) / float64(tr.testCount)
			}
		}
		return tr.checkFinite(stats.Loss)
	}
}

// Train runs epochs full-batch steps and returns per-epoch stats (only the
// last one keeps the heavyweight task/schedule payload). The first epoch
// failure stops the run, returning the completed epochs' stats alongside the
// error; TrainElastic is the fault-tolerant variant.
func (tr *Trainer) Train(epochs int) ([]*EpochStats, error) {
	return trainEpochs(tr.RunEpoch, epochs, 0)
}

// trainEpochs calls runEpoch up to epochs times, logging the stats; it stops
// at the first failure — returning the completed epochs' stats alongside the
// error — or when patience > 0 runs out.
func trainEpochs(runEpoch func() (*EpochStats, error), epochs, patience int) ([]*EpochStats, error) {
	log := runLog{patience: patience}
	for e := 0; e < epochs; e++ {
		s, err := runEpoch()
		if err != nil {
			return log.stats, err
		}
		if log.add(s) {
			break
		}
	}
	return log.stats, nil
}

// PeakMemoryBytes returns the maximum per-device pool usage (pools only
// grow, so usage is the peak).
func (tr *Trainer) PeakMemoryBytes() int64 {
	var m int64
	for _, p := range tr.Machine.Pools {
		m = max(m, p.Used())
	}
	return m
}

// BufferCount returns the number of large shared/private buffers per
// device — the paper's L+3.
func (tr *Trainer) BufferCount() int { return tr.devs[0].bufs.Count() }
