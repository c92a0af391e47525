package core

import (
	"fmt"

	"mggcn/internal/comm"
	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/sample"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// This file is the factored sampler/trainer minibatch pipeline: the sampled
// counterpart of trainer.go's full-batch step, built from the same
// record-then-replay machinery. Each device runs three stages per step —
//
//	sample (StreamSample):  k-hop fanout blocks from the batch's seed, with
//	                        the transposes (CSC) the backward pass reads
//	extract (StreamSample): feature move through the device's static cache
//	                        (modelled: see below)
//	train (StreamCompute):  per-layer SpMM→GeMM→ReLU forward, loss, backward
//	allreduce (StreamComm): per-layer gradient sum across the full group
//
// — with a double-buffered handoff slot between the sampler stage and the
// trainer (GNNLab's factored architecture): step s's sample task depends on
// step s-depth's Adam, so with depth 2 the sampler runs one step ahead of
// training and sim.Graph.Execute overlaps the stages. Every handoff is a
// recorded Deps edge (the sampler stream neither issues nor receives
// cross-stream fences), and blocks/seeds are pure functions of
// (Seed, epoch, batch), so fixed-seed runs are bit-identical at any replay
// parallelism — the same parity bar the full-batch trainer meets.
//
// Layers run aggregate-then-transform, AH_l = A_l·h_l then z_l = AH_l·W_l:
// a block's destination frontier is a subset of its source frontier, so
// this is §4.4's cheaper order on every block (DESIGN.md §8 has the
// inequality), every GeMM runs over destination rows, and the backward pass
// (W_G = AH_lᵀ·G, t = G·W_lᵀ over AH_l, G ← A_lᵀ·t) needs no SpMM at layer 0.
//
// All dense intermediates live in registered per-device slabs sized by the
// provable frontier caps (sample.FrontierCaps), the sampled analogue of the
// §4.2 buffer set: 2L+3 slabs (cache, X, G, AH_0..L-1, OUT_1..L), the same
// at either pipeline depth. internal/memcheck certifies this slab set's
// peak statically.
//
// Extract is a host-to-device move on the modelled machine, and the graph
// records it as one. On the host it would only copy rows the layer-0 SpMM can
// read in place, so the cache slab and X are shape-only, the extract closure
// counts cache hits, and the layer-0 SpMM reads host/x through block 0's
// global column ids (sample.Block.AdjGlobal) in X's summation order.

// SampledConfig selects the machine, parallelism and sampling schedule of a
// sampled minibatch run.
type SampledConfig struct {
	Spec     sim.MachineSpec
	P        int // number of GPUs
	MemScale int // memory divisor matching the dataset scale

	Hidden int // hidden layer width
	Layers int // layer count L (== len(Fanouts))
	LR     float64

	Batch int // minibatch size (target vertices per batch)
	// Fanouts[l] is layer l's neighbor sample bound, outermost (input
	// layer) first — GNNLab's [5,10,15] convention.
	Fanouts []int
	// CacheFrac is the fraction of vertices whose feature rows each device
	// caches, hottest (highest in-degree) first. 0 disables caching.
	CacheFrac float64
	// Pipeline enables the double-buffered sampler handoff: the sampler
	// stage runs one step ahead of training (depth 2). Off, the handoff
	// slot is single-buffered and the stages serialize per device. Results
	// are bit-identical either way.
	Pipeline bool

	Seed int64 // weight init, epoch shuffles, and all sampler streams
	// The execution environment, as on Config: ExecWorkers, ExecSeed,
	// ExecObserver, Fault, CommMeter.
	execEnv

	// TrackVal computes per-epoch validation accuracy with a host-side
	// sampled forward over the val mask after each completed epoch —
	// statistics only, never part of the task graph or its determinism.
	TrackVal bool
	// EarlyStopPatience > 0 makes Train stop after that many consecutive
	// epochs without a validation-accuracy improvement (implies TrackVal).
	EarlyStopPatience int
}

// DefaultSampledConfig returns the GNNLab-style sampled configuration:
// 3 layers at fanout [5,10,15], half the vertices cached, pipelining on.
func DefaultSampledConfig(spec sim.MachineSpec, p, memScale int) SampledConfig {
	return SampledConfig{
		Spec: spec, P: p, MemScale: memScale,
		Hidden: 128, Layers: 3, LR: 0.01,
		Batch: 512, Fanouts: []int{5, 10, 15},
		CacheFrac: 0.5, Pipeline: true, Seed: 1,
	}
}

// sampledBuffers is one device's registered slab set — the minibatch
// counterpart of DeviceBuffers. Capacities come from the frontier caps, so
// any batch the epoch plan can produce fits:
//
//	X:      caps[0]·F_0           — gathered input features h_0, shape-only
//	                                (charged and registered; the host reads
//	                                host/x instead). Only the layer-0 SpMM
//	                                reads it, so one slab serves both handoff
//	                                slots: extract(s) waits for step s-1's
//	                                layer-0 SpMM
//	AH[l]:  caps[l+1]·F_l         — the aggregate A_l·h_l, kept for the
//	                                weight gradient, then overwritten by
//	                                t = G·W_lᵀ
//	G:      max_l caps[l+1]·F_{l+1} — the gradient flowing down the layers
//	OUT[l]: caps[l+1]·F_{l+1}     — layer l's output h_{l+1}
type sampledBuffers struct {
	X   *Buffer
	AH  []*Buffer
	G   *Buffer
	OUT []*Buffer
}

// newSampledBuffers allocates the slab set on pool for device dev, where
// caps are the frontier bounds (len L+1) and dims the layer widths; phantom
// slabs are charged and registered without storage.
func newSampledBuffers(reg *sim.BufRegistry, dev int, pool *sim.Pool, caps, dims []int, phantom bool) (*sampledBuffers, error) {
	L := len(dims) - 1
	var gCap int64
	for l := 0; l < L; l++ {
		gCap = max(gCap, int64(caps[l+1])*int64(dims[l+1]))
	}
	b := &sampledBuffers{AH: make([]*Buffer, L), OUT: make([]*Buffer, L)}
	var err error
	if b.X, err = newBuffer(reg, dev, pool, "buf/x", int64(caps[0])*int64(dims[0]), true); err != nil {
		return nil, err
	}
	if b.G, err = newBuffer(reg, dev, pool, "buf/G", gCap, phantom); err != nil {
		return nil, err
	}
	for l := 0; l < L; l++ {
		rows := int64(caps[l+1])
		if b.AH[l], err = newBuffer(reg, dev, pool, fmt.Sprintf("buf/AH%d", l), rows*int64(dims[l]), phantom); err != nil {
			return nil, err
		}
		if b.OUT[l], err = newBuffer(reg, dev, pool, fmt.Sprintf("buf/OUT%d", l+1), rows*int64(dims[l+1]), phantom); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// SampledTrainer is a distributed sampled-minibatch training run. Create
// with NewSampledTrainer; each RunEpoch consumes one deterministic epoch
// plan (shuffled batches round-robined over devices) and returns the
// epoch's statistics.
type SampledTrainer struct {
	Cfg   SampledConfig
	Graph *graph.Graph
	Dims  []int

	// replicas is the replicated model on its machine (Machine, the buffer
	// registry and the last replayed graph come with it).
	replicas
	// devs[d] is device d's side of the step; feat is the host-resident
	// feature store (a registered view of the dataset's matrix, which the
	// layer-0 SpMM reads); caps are the frontier bounds the slab capacities
	// derive from.
	devs []*sampledDevice
	feat *tensor.Dense
	caps []int

	avgDeg     float64
	trainVerts []int32
	valVerts   []int32
	cursor     samplerCursor
}

// sampledDevice is everything one device's tasks touch, and the step's
// arithmetic as methods over it: its registered slab set, its degree-ordered
// static feature cache, its handoff slots, the loss task's label scratch and
// its model replica. The recorder binds one method per task; validation runs
// the forward ones back to back on an idle device. Every method that reads
// sampled blocks takes the slot they came through.
type sampledDevice struct {
	tr *SampledTrainer // the shared read-only side: Dims, feat, labels
	*sampledBuffers
	cache  *sample.FeatureCache
	slots  []handoffSlot // depth entries
	labels []int32
	// weights and grads are this device's entries of the replicated model.
	weights, grads []*tensor.Dense
}

// handoffSlot is one sampler→trainer handoff slot: the sampler that builds
// its blocks into storage it reuses every step, the blocks themselves — the
// host-side payload every trainer closure sizes its slab views from, read and
// written through the slot at replay time — and the opaque pseudo-buffer
// naming it for the sanitizer: sample/extract/train/Adam tasks declare it, so
// a missing double-buffer dependency shows up as an unordered conflicting
// access in san.Check.
type handoffSlot struct {
	id      sim.BufID
	sampler *sample.Sampler
	blocks  []*sample.Block
}

// samplerCursor is the sampled run's resumable position: the epoch whose
// plan is being consumed and the next batch index within it. NextBatch is
// always a step boundary (a multiple of P), so a resumed run's step
// grouping — and therefore its step-mean gradient normalization — matches
// the uninterrupted run's exactly. The cursor advances only after a
// successful replay: a failed segment leaves it at the segment start,
// which is precisely where recovery re-derives the lost batches from
// (Seed, epoch, batch) and replays them bit-identically.
type samplerCursor struct {
	Epoch     int
	NextBatch int
}

// NewSampledTrainer allocates the replicated model, builds the per-device
// feature caches and frontier-capped slab sets, and registers every
// device-resident buffer with the sanitizer. A structure-only graph
// (Features nil) gets a shape-only feature store and slabs: its epochs are
// recorded, folded and scheduled like a real one's, at the same costs, and
// not replayed, so they carry no loss, meter words or validation accuracy.
func NewSampledTrainer(g *graph.Graph, cfg SampledConfig) (*SampledTrainer, error) {
	if err := validateModelOnMachine(cfg.Spec, cfg.P, cfg.MemScale, cfg.Layers, cfg.Hidden, cfg.LR); err != nil {
		return nil, err
	}
	if len(cfg.Fanouts) != cfg.Layers {
		return nil, fmt.Errorf("core: %d fanouts for %d layers", len(cfg.Fanouts), cfg.Layers)
	}
	for _, f := range cfg.Fanouts {
		if f < 1 {
			return nil, fmt.Errorf("core: fanout %d < 1", f)
		}
	}
	if cfg.Batch < 1 {
		return nil, fmt.Errorf("core: batch %d < 1", cfg.Batch)
	}
	if cfg.CacheFrac < 0 || cfg.CacheFrac > 1 {
		return nil, fmt.Errorf("core: cache fraction %v outside [0,1]", cfg.CacheFrac)
	}
	if err := validateTrainSplit(g); err != nil {
		return nil, err
	}
	dims := nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)
	init := nn.InitWeights(dims, cfg.Seed)
	tr := &SampledTrainer{
		Cfg: cfg, Graph: g, Dims: dims,
		replicas: newReplicas(newReplayer(cfg.Spec, cfg.P, cfg.MemScale, g.IsPhantom()), init),
		avgDeg:   g.AvgDegree(),
	}
	tr.caps = sample.FrontierCaps(g.N(), cfg.Batch, cfg.Fanouts)
	// The host feature store: a fresh view struct over the dataset's
	// storage (its shape alone on a phantom), registered under its own name
	// so the dataset matrix itself is never stamped (other trainers may
	// register the same storage).
	tr.feat = tensor.NewPhantom(g.N(), g.FeatDim)
	if !tr.phantom {
		*tr.feat = *g.Features
	}
	registerDense(tr.reg, tr.reg.Register("host/x"), tr.feat)
	// One degree order, read-only, for every device's cache of its own slab.
	cache := sample.NewFeatureCache(tr.feat, g.InDegrees(), cfg.CacheFrac)
	for d := 0; d < tr.Machine.P; d++ {
		if err := tr.add(init, cfg.LR); err != nil {
			return nil, err
		}
		dv := &sampledDevice{tr: tr, weights: tr.weights[d], grads: tr.grads[d], labels: make([]int32, tr.caps[cfg.Layers])}
		dv.cache = &sample.FeatureCache{Slab: tensor.NewPhantom(cache.Slab.Rows, cache.Slab.Cols), Pos: cache.Pos, MassFraction: cache.MassFraction}
		if err := tr.Machine.Pools[d].Alloc("cache", dv.cache.Slab.Bytes()); err != nil {
			return nil, err
		}
		// The cache is a §4.2-style slab: registered as one, it is in the
		// live-slab universe memcheck and the allocation meter count.
		registerDense(tr.reg, tr.reg.RegisterOn(fmt.Sprintf("d%d/buf/cache", d), d, true), dv.cache.Slab)
		var err error
		if dv.sampledBuffers, err = newSampledBuffers(tr.reg, d, tr.Machine.Pools[d], tr.caps, tr.Dims, tr.phantom); err != nil {
			return nil, err
		}
		for k := 0; k < tr.Depth(); k++ {
			sl := handoffSlot{id: tr.reg.RegisterOn(fmt.Sprintf("d%d/slot%d", d, k), d, false)}
			if !tr.phantom { // a phantom never replays, so never samples
				sl.sampler = sample.NewSampler(g.Adj, cfg.Fanouts)
			}
			dv.slots = append(dv.slots, sl)
		}
		tr.devs = append(tr.devs, dv)
	}
	for v := 0; v < g.N(); v++ {
		if g.TrainMask == nil || g.TrainMask[v] {
			tr.trainVerts = append(tr.trainVerts, int32(v))
		}
		// A phantom has no features to validate on: no validation
		// vertices, so no validation statistic and no early stop.
		if g.ValMask != nil && g.ValMask[v] && !tr.phantom {
			tr.valVerts = append(tr.valVerts, int32(v))
		}
	}
	return tr, nil
}

// Depth returns the handoff slot count: 2 when pipelined, 1 otherwise.
func (tr *SampledTrainer) Depth() int {
	if tr.Cfg.Pipeline {
		return 2
	}
	return 1
}

// frontierEstimate returns the record-time expected frontier sizes
// (verts[l] = source-frontier rows of block l, verts[L] = the batch) and
// per-block sampled edge counts (self-loops included) for a batch of
// batchLen targets — the analytic inputs of the sample/extract/train task
// costs. The closures compute the real blocks; these only price the tasks.
func (tr *SampledTrainer) frontierEstimate(batchLen int) (verts []int, edges []int64) {
	L := len(tr.Cfg.Fanouts)
	verts = make([]int, L+1)
	edges = make([]int64, L)
	verts[L] = batchLen
	n := tr.Graph.N()
	for h := L - 1; h >= 0; h-- {
		f := min(float64(tr.Cfg.Fanouts[h]), tr.avgDeg)
		e := float64(verts[h+1]) * (1 + f) // + self-loops
		edges[h] = int64(e)
		verts[h] = min(int(e), n)
	}
	return verts, edges
}

// --- The step's arithmetic. Layer l reads h_l (X for l = 0, else OUT[l-1])
// over block l's source frontier and leaves h_{l+1} in OUT[l] over its
// destination frontier; G carries the gradient back down. ---

// sample builds slot k's blocks for batch from the stream seeded with seed.
func (dv *sampledDevice) sample(k int, batch []int32, seed int64) {
	sl := &dv.slots[k]
	sl.blocks = sl.sampler.Build(batch, seed)
}

// aggregate is layer l's forward SpMM: AH_l = A_l · h_l. Layer 0 reads h_0
// from the host feature store through block 0's global column ids.
func (dv *sampledDevice) aggregate(k, l int) {
	blk, dIn := dv.slots[k].blocks[l], dv.tr.Dims[l]
	adj, h := blk.AdjGlobal, dv.tr.feat
	if l > 0 {
		adj, h = blk.Adj, dv.OUT[l-1].View(blk.Adj.Cols, dIn)
	}
	sparse.ParallelSpMM(adj, h, 0, dv.AH[l].View(adj.Rows, dIn), 0)
}

// transform is layer l's forward GeMM: z_l = AH_l · W_l into OUT[l].
func (dv *sampledDevice) transform(k, l int) {
	rows := dv.slots[k].blocks[l].Adj.Rows
	tensor.ParallelGemm(1, dv.AH[l].View(rows, dv.tr.Dims[l]), dv.weights[l], 0, dv.OUT[l].View(rows, dv.tr.Dims[l+1]), 0)
}

// activate applies the ReLU to layer l's output in place.
func (dv *sampledDevice) activate(k, l int) {
	z := dv.OUT[l].View(dv.slots[k].blocks[l].Adj.Rows, dv.tr.Dims[l+1])
	tensor.ReLU(z, z)
}

// outputs returns the logits of slot k's batch and its labels, gathered into
// the label scratch.
func (dv *sampledDevice) outputs(k int) (logits *tensor.Dense, labels []int32) {
	L := len(dv.OUT)
	dst := dv.slots[k].blocks[L-1].Dst
	labels = dv.labels[:len(dst)]
	for i, v := range dst {
		labels[i] = dv.tr.Graph.Labels[v]
	}
	return dv.OUT[L-1].View(len(dst), dv.tr.Dims[L]), labels
}

// loss sums the batch's cross-entropy and counts its correct predictions,
// leaving the gradient — scaled 1/norm, so the all-reduced sum over a step
// is the exact step-mean gradient — in G.
func (dv *sampledDevice) loss(k, norm int) (sum float64, correct int) {
	logits, labels := dv.outputs(k)
	sum, correct, _ = nn.SoftmaxCrossEntropySum(logits, labels, nil, nil, dv.G.View(logits.Rows, logits.Cols), norm)
	return sum, correct
}

// mask masks the gradient in G in place by layer l's forward activation.
func (dv *sampledDevice) mask(k, l int) {
	rows, dOut := dv.slots[k].blocks[l].Adj.Rows, dv.tr.Dims[l+1]
	g := dv.G.View(rows, dOut)
	tensor.ReLUBackward(g, g, dv.OUT[l].View(rows, dOut))
}

// wgrad is layer l's weight gradient W_G = AH_lᵀ · G.
func (dv *sampledDevice) wgrad(k, l int) {
	rows := dv.slots[k].blocks[l].Adj.Rows
	tensor.ParallelGemmTA(1, dv.AH[l].View(rows, dv.tr.Dims[l]), dv.G.View(rows, dv.tr.Dims[l+1]), 0, dv.grads[l], 0)
}

// hgrad is t = G · W_lᵀ, taking AH_l's place.
func (dv *sampledDevice) hgrad(k, l int) {
	rows := dv.slots[k].blocks[l].Adj.Rows
	tensor.ParallelGemmTB(1, dv.G.View(rows, dv.tr.Dims[l+1]), dv.weights[l], 0, dv.AH[l].View(rows, dv.tr.Dims[l]), 0)
}

// scatter is G ← A_lᵀ · t: the gradient carried to block l's source
// frontier.
func (dv *sampledDevice) scatter(k, l int) {
	at, dIn := dv.slots[k].blocks[l].AdjT, dv.tr.Dims[l]
	sparse.ParallelSpMM(at, dv.AH[l].View(at.Cols, dIn), 0, dv.G.View(at.Rows, dIn), 0)
}

// SampledEpochStats is EpochStats under the name the sampled trainer's
// callers know it by.
type SampledEpochStats = EpochStats

// RunEpoch performs one sampled epoch: the epoch plan's batches are
// round-robined over devices step by step; each step samples, extracts,
// trains, all-reduces the summed step-mean gradient across the full group,
// and applies Adam on every replica. Devices left without a batch on the
// tail step contribute zero gradients, so weights stay replicated. After a
// mid-epoch checkpoint restore, the first call completes the in-flight
// epoch from the cursor's batch onward.
func (tr *SampledTrainer) RunEpoch() (*EpochStats, error) {
	return tr.RunSteps(-1)
}

// segmentRecorder is the recording state of one RunSteps segment: the plan
// being consumed, the per-batch loss slots the loss closures fill (folded in
// batch order after the replay, so concurrent execution stays deterministic)
// and the tasks later steps wait on.
type segmentRecorder struct {
	tr       *SampledTrainer
	tg       *sim.Graph
	plan     *sample.Plan
	lossSum  []float64
	correct  []int
	prevAdam [][]int // prevAdam[s][d]
	spmm0    []int   // spmm0[d]: device d's latest layer-0 SpMM, X's reader
}

// RunSteps records and replays at most maxSteps steps (one step trains P
// batches) and then stops with the cursor parked on the next step boundary
// — the seam mid-epoch checkpoints and their tests drive. A negative
// maxSteps runs to the end of the epoch.
func (tr *SampledTrainer) RunSteps(maxSteps int) (*EpochStats, error) {
	p := tr.Machine.P
	L := tr.Cfg.Layers
	epoch := tr.cursor.Epoch
	plan := sample.PlanEpoch(tr.trainVerts, tr.Cfg.Batch, tr.Cfg.Seed, epoch)
	B := len(plan.Batches)
	start := tr.cursor.NextBatch
	if start >= B {
		tr.cursor = samplerCursor{Epoch: epoch + 1}
		return &EpochStats{}, nil
	}
	steps := (B - start + p - 1) / p
	if maxSteps >= 0 && steps > maxSteps {
		steps = maxSteps
	}
	if steps == 0 {
		return &EpochStats{}, nil
	}
	// end is one past the last batch this segment trains; the cursor lands
	// there (or rolls over) only after the replay succeeds.
	end := min(start+steps*p, B)

	return tr.epoch(&tr.Cfg.execEnv, func(tg *sim.Graph, cg *comm.Group) func(*EpochStats) error {
		r := &segmentRecorder{
			tr: tr, tg: tg, plan: plan,
			lossSum: make([]float64, B), correct: make([]int, B),
			prevAdam: make([][]int, steps), spmm0: make([]int, p),
		}
		for s := 0; s < steps; s++ {
			stepRows := 0
			for d := 0; d < p; d++ {
				if b := start + s*p + d; b < B {
					stepRows += len(plan.Batches[b])
				}
			}
			wgradID := make([][]int, L)       // per layer: tasks the all-reduce waits on
			stepSlots := make([]sim.BufID, p) // per device: the slot its batch came through (zero: no batch)
			for d := 0; d < p; d++ {
				if b := start + s*p + d; b < B {
					r.batch(s, d, b, stepRows, wgradID)
					stepSlots[d] = tr.devs[d].slots[s%tr.Depth()].id
					continue
				}
				// Tail step without a batch for this device: contribute zero
				// gradients so the full-group all-reduce still sums a
				// step-mean gradient and replicas stay identical.
				gs := tr.grads[d]
				id := tg.AddCompute(d, sim.KindActivation, fmt.Sprintf("s%d/zerograd", s), -1,
					tr.Machine.Spec.ElementwiseCost(tr.paramCount, 0), true)
				tg.BindShaped(id, nil, sim.ShapesOf(gs...), func() {
					for _, g := range gs {
						g.Zero()
					}
				})
				for l := range wgradID {
					wgradID[l] = append(wgradID[l], id)
				}
			}
			// --- Per-layer full-group gradient all-reduce, then Adam on every
			// replica (weights stay identical across devices). ---
			lastAR := -1
			for l := L - 1; l >= 0; l-- {
				lastAR = tr.allReduceGrads(cg, l, fmt.Sprintf("s%d/allreduce%d", s, l), wgradID[l])
			}
			// Adam is the last task of the step and the slot-recycle point: step
			// s+depth's sample task depends on it, and declaring the step's
			// handoff slot in its reads makes that recycle edge a
			// sanitizer-checked write-after-read.
			r.prevAdam[s] = tr.recordAdam(tg, fmt.Sprintf("s%d/adam", s), lastAR, stepSlots)
		}

		return func(stats *EpochStats) error {
			stats.Batches = end - start
			var totalCorrect, rows int
			for b := start; b < end; b++ {
				rows += len(plan.Batches[b])
				stats.Loss += r.lossSum[b]
				totalCorrect += r.correct[b]
			}
			// For a full epoch rows == len(trainVerts) (every train vertex
			// appears in exactly one batch); a resumed segment normalizes over
			// its own rows.
			stats.Loss /= float64(rows)
			stats.TrainAcc = float64(totalCorrect) / float64(rows)
			if err := tr.checkFinite(stats.Loss); err != nil {
				return err
			}
			// The replay succeeded and the numbers are sane: commit the cursor.
			if end < B {
				tr.cursor.NextBatch = end
				return nil
			}
			tr.cursor = samplerCursor{Epoch: epoch + 1}
			if (tr.Cfg.TrackVal || tr.Cfg.EarlyStopPatience > 0) && len(tr.valVerts) > 0 {
				stats.ValAcc = tr.valAccuracy(epoch)
			}
			return nil
		}
	})
}

// batch records device d's share of step s — batch b through the sampler
// stage, the L forward layers, the loss and the backward pass — binding one
// sampledDevice method per task. norm is the step's row count, the loss
// gradient's normalizer. Layer l's weight-gradient task, which that layer's
// all-reduce waits on, is appended to wgradID[l].
func (r *segmentRecorder) batch(s, d, b, norm int, wgradID [][]int) {
	tr, tg := r.tr, r.tg
	spec := tr.Machine.Spec
	L := tr.Cfg.Layers
	depth := tr.Depth()
	dv, k := tr.devs[d], s%depth
	slotBuf := dv.slots[k].id
	slotShape := []sim.ViewShape{sim.OpaqueShape(slotBuf)}
	opaque := func(buf *Buffer) sim.ViewShape { return sim.OpaqueShape(buf.id) }
	batch, seed := r.plan.Batches[b], r.plan.Seeds[b]
	verts, edges := tr.frontierEstimate(len(batch))
	var totalEdges int64
	for _, e := range edges {
		totalEdges += e
	}

	// --- Sampler stage: sample ---
	// The slot-recycle dependency: slot s%depth is free once step
	// s-depth's Adam (the last compute-stream task of that step on
	// this device) has run — FIFO order covers every earlier reader.
	var sampDeps []int
	if s >= depth {
		sampDeps = append(sampDeps, r.prevAdam[s-depth][d])
	}
	sampID := tg.AddStage(d, sim.StreamSample, sim.KindSample,
		fmt.Sprintf("s%d/sample", s), -1,
		spec.SampleCost(int64(tr.s(int(totalEdges)))), true, sampDeps...)
	tg.BindShaped(sampID, nil, slotShape, func() { dv.sample(k, batch, seed) })

	// --- Sampler stage: extract (the modelled move through the cache
	// into the device's one staging slab; the host only counts hits) ---
	// X's only reader is the layer-0 SpMM, so the slab is free again
	// once step s-1's has run; the slots double-buffer the blocks.
	extDeps := []int{sampID}
	if s > 0 {
		extDeps = append(extDeps, r.spmm0[d])
	}
	d0 := tr.Dims[0]
	meter := tr.Cfg.CommMeter
	expHit := int64(float64(tr.s(verts[0])) * dv.cache.MassFraction)
	extID := tg.AddStage(d, sim.StreamSample, sim.KindExtract,
		fmt.Sprintf("s%d/extract", s), -1,
		spec.GatherCost(expHit, int64(tr.s(verts[0]))-expHit, d0), true, extDeps...)
	tg.BindShaped(extID,
		append(sim.ShapesOf(dv.cache.Slab, tr.feat), sim.OpaqueShape(slotBuf)),
		append(slotShape, opaque(dv.X)), func() {
			hit, miss := dv.cache.Count(dv.slots[k].blocks[0].Src)
			meter.Add(sim.CollGatherHit, int64(hit)*int64(d0))
			meter.Add(sim.CollGatherMiss, int64(miss)*int64(d0))
		})

	// --- Trainer stage: forward (aggregate-then-transform) ---
	prev := extID
	for l := 0; l < L; l++ {
		dIn, dOut := tr.Dims[l], tr.Dims[l+1]
		ah, out := dv.AH[l], dv.OUT[l]
		spmmID := tg.AddCompute(d, sim.KindSpMM, fmt.Sprintf("s%d/fwd%d/spmm", s, l), -1,
			spec.SpMMCost(int64(tr.s(int(edges[l]))), tr.s(verts[l+1]), tr.s(verts[l]), dIn), true, prev)
		var reads []sim.ViewShape
		if l == 0 { // the modelled input is X; the host reads host/x
			reads = append(slotShape, opaque(dv.X), sim.ShapesOf(tr.feat)[0])
			r.spmm0[d] = spmmID
		} else {
			reads = append(slotShape, opaque(dv.OUT[l-1]))
		}
		tg.BindShaped(spmmID, reads, []sim.ViewShape{opaque(ah)}, func() { dv.aggregate(k, l) })
		prev = tg.AddCompute(d, sim.KindGeMM, fmt.Sprintf("s%d/fwd%d/gemm", s, l), -1,
			spec.GemmCost(tr.s(verts[l+1]), dIn, dOut), false, spmmID)
		tg.BindShaped(prev, append(sim.ShapesOf(dv.weights[l]), sim.OpaqueShape(slotBuf), opaque(ah)), []sim.ViewShape{opaque(out)},
			func() { dv.transform(k, l) })
		if l < L-1 {
			prev = tg.AddCompute(d, sim.KindActivation, fmt.Sprintf("s%d/fwd%d/relu", s, l), -1,
				spec.ElementwiseCost(int64(tr.s(verts[l+1]))*int64(dOut), 1), true, prev)
			tg.BindShaped(prev, append(slotShape, opaque(out)), []sim.ViewShape{opaque(out)},
				func() { dv.activate(k, l) })
		}
	}

	// --- Loss: sum over the batch into its private slot ---
	prev = tg.AddCompute(d, sim.KindLoss, fmt.Sprintf("s%d/loss", s), -1,
		spec.LossCost(tr.s(len(batch)), tr.Dims[L]), true, prev)
	tg.BindShaped(prev, append(slotShape, opaque(dv.OUT[L-1])), []sim.ViewShape{opaque(dv.G)},
		func() { r.lossSum[b], r.correct[b] = dv.loss(k, norm) })

	// --- Backward: per layer mask → wgrad → (hgrad → SpMMᵀ). G holds
	// ∂/∂z_l on the destination frontier: the weight gradient reads
	// AH_l against it, t = G·W_lᵀ then takes AH_l's place, and
	// G ← A_lᵀ·t carries the gradient to the source frontier. Layer 0
	// has nothing below it to propagate to, so it stops at wgrad. ---
	for l := L - 1; l >= 0; l-- {
		dIn, dOut := tr.Dims[l], tr.Dims[l+1]
		ah, out := dv.AH[l], dv.OUT[l]
		if l < L-1 {
			prev = tg.AddCompute(d, sim.KindActivation, fmt.Sprintf("s%d/bwd%d/relu", s, l), -1,
				spec.ElementwiseCost(int64(tr.s(verts[l+1]))*int64(dOut), 2), true, prev)
			tg.BindShaped(prev, append(slotShape, opaque(out), opaque(dv.G)), []sim.ViewShape{opaque(dv.G)},
				func() { dv.mask(k, l) })
		}
		wgID := tg.AddCompute(d, sim.KindGeMM, fmt.Sprintf("s%d/bwd%d/wgrad", s, l), -1,
			spec.GemmCost(dIn, tr.s(verts[l+1]), dOut), false, prev)
		tg.BindShaped(wgID, append(slotShape, opaque(ah), opaque(dv.G)), sim.ShapesOf(dv.grads[l]),
			func() { dv.wgrad(k, l) })
		wgradID[l] = append(wgradID[l], wgID)
		if l == 0 {
			break
		}
		hgID := tg.AddCompute(d, sim.KindGeMM, fmt.Sprintf("s%d/bwd%d/hgrad", s, l), -1,
			spec.GemmCost(tr.s(verts[l+1]), dOut, dIn), false, wgID)
		tg.BindShaped(hgID, append(sim.ShapesOf(dv.weights[l]), sim.OpaqueShape(slotBuf), opaque(dv.G)), []sim.ViewShape{opaque(ah)},
			func() { dv.hgrad(k, l) })
		prev = tg.AddCompute(d, sim.KindSpMM, fmt.Sprintf("s%d/bwd%d/spmm", s, l), -1,
			spec.SpMMCost(int64(tr.s(int(edges[l]))), tr.s(verts[l]), tr.s(verts[l+1]), dIn), true, hgID)
		tg.BindShaped(prev, append(slotShape, opaque(ah)), []sim.ViewShape{opaque(dv.G)},
			func() { dv.scatter(k, l) })
	}
}

// Train runs up to epochs sampled epochs; only the last returned epoch keeps
// the heavyweight task/schedule payload. With EarlyStopPatience > 0 and
// validation vertices present, the run stops once that many consecutive
// epochs pass without improving the best validation accuracy — the
// returned slice is then shorter than epochs.
func (tr *SampledTrainer) Train(epochs int) ([]*EpochStats, error) {
	return trainEpochs(tr.RunEpoch, epochs, tr.patience())
}

// patience returns the early-stopping patience in force: the configured
// one when there are validation vertices to track, otherwise 0 (off).
func (tr *SampledTrainer) patience() int {
	if len(tr.valVerts) == 0 {
		return 0
	}
	return tr.Cfg.EarlyStopPatience
}

// valAccuracy evaluates the current model on the validation vertices with
// the training step's own forward methods on device 0 (replicas are
// identical at epoch boundaries), outside the task graph: the replay is
// over, so the device's samplers, cache and slabs are idle. Validation
// batches run in natural order at the training batch size; their sampler
// seeds come from SplitSeed(seed, epoch, -2-b), disjoint from both the epoch
// shuffle (-1) and every training batch (b >= 0), so tracking validation
// never perturbs the training pipeline's sampling stream or its determinism.
func (tr *SampledTrainer) valAccuracy(epoch int) float64 {
	dv := tr.devs[0]
	totalCorrect := 0
	for b, lo := 0, 0; lo < len(tr.valVerts); b, lo = b+1, lo+tr.Cfg.Batch {
		hi := min(lo+tr.Cfg.Batch, len(tr.valVerts))
		dv.sample(0, tr.valVerts[lo:hi], sample.SplitSeed(tr.Cfg.Seed, epoch, -2-b))
		for l := 0; l < tr.Cfg.Layers; l++ {
			dv.aggregate(0, l)
			dv.transform(0, l)
			if l < tr.Cfg.Layers-1 {
				dv.activate(0, l)
			}
		}
		logits, labels := dv.outputs(0)
		c, _ := nn.CorrectCount(logits, labels, nil)
		totalCorrect += c
	}
	return float64(totalCorrect) / float64(len(tr.valVerts))
}

// Caches returns the per-device feature caches (read-only introspection).
func (tr *SampledTrainer) Caches() []*sample.FeatureCache {
	caches := make([]*sample.FeatureCache, len(tr.devs))
	for d, dv := range tr.devs {
		caches[d] = dv.cache
	}
	return caches
}

// TrainVertexCount returns the number of training vertices in the plan.
func (tr *SampledTrainer) TrainVertexCount() int { return len(tr.trainVerts) }

// FrontierCapacities returns the provable per-depth frontier bounds the
// slab capacities derive from (sample.FrontierCaps of this config).
func (tr *SampledTrainer) FrontierCapacities() []int {
	return append([]int(nil), tr.caps...)
}
