package core

import (
	"fmt"

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
//	extract (StreamSample): feature gather through the device's static cache
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
	// The execution environment, as on Config: Workers, ExecWorkers,
	// ExecSeed, ExecObserver, Fault, Retry, RetryClock, CommMeter.
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
//	X:      caps[0]·F_0           — gathered input features h_0. Only the
//	                                layer-0 SpMM reads it, so one slab serves
//	                                both handoff slots: extract(s) waits for
//	                                step s-1's layer-0 SpMM
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
// caps are the frontier bounds (len L+1) and dims the layer widths.
func newSampledBuffers(reg *sim.BufRegistry, dev int, pool *sim.Pool, caps, dims []int) (*sampledBuffers, error) {
	L := len(dims) - 1
	var gCap int64
	for l := 0; l < L; l++ {
		gCap = max(gCap, int64(caps[l+1])*int64(dims[l+1]))
	}
	b := &sampledBuffers{AH: make([]*Buffer, L), OUT: make([]*Buffer, L)}
	var err error
	if b.X, err = newBuffer(reg, dev, pool, "buf/x", int64(caps[0])*int64(dims[0]), false); err != nil {
		return nil, err
	}
	if b.G, err = newBuffer(reg, dev, pool, "buf/G", gCap, false); err != nil {
		return nil, err
	}
	for l := 0; l < L; l++ {
		rows := int64(caps[l+1])
		if b.AH[l], err = newBuffer(reg, dev, pool, fmt.Sprintf("buf/AH%d", l), rows*int64(dims[l]), false); err != nil {
			return nil, err
		}
		if b.OUT[l], err = newBuffer(reg, dev, pool, fmt.Sprintf("buf/OUT%d", l+1), rows*int64(dims[l+1]), false); err != nil {
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
	// caches[d] is device d's degree-ordered static feature cache; feat is
	// the host-resident feature store (a registered view of the dataset's
	// matrix — misses gather from it over the host link).
	caches []*sample.FeatureCache
	feat   *tensor.Dense
	// bufs[d] is device d's registered slab set; caps are the frontier
	// bounds its capacities derive from.
	bufs []*sampledBuffers
	caps []int
	// slotBufs[d][k] is the opaque pseudo-buffer naming handoff slot k of
	// device d for the sanitizer: sample/extract/train/Adam tasks declare
	// it, so a missing double-buffer dependency shows up as an unordered
	// conflicting access in san.Check.
	slotBufs [][]sim.BufID
	// samplers[d][k] builds handoff slot k's blocks on device d into storage
	// it reuses every step; labels[d] is the loss task's label scratch.
	samplers [][]*sample.Sampler
	labels   [][]int32

	degrees    []int64
	avgDeg     float64
	trainVerts []int32
	valVerts   []int32
	cursor     samplerCursor
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
// device-resident buffer with the sanitizer. Sampling needs real features
// and labels, so phantom datasets are rejected.
func NewSampledTrainer(g *graph.Graph, cfg SampledConfig) (*SampledTrainer, error) {
	if err := validateModelOnMachine(cfg.Spec, cfg.P, cfg.MemScale, cfg.Layers, cfg.Hidden); err != nil {
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
	if g.IsPhantom() {
		return nil, fmt.Errorf("core: sampled training needs materialized features")
	}
	dims := nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)
	init := nn.InitWeights(dims, cfg.Seed)
	tr := &SampledTrainer{
		Cfg: cfg, Graph: g, Dims: dims,
		replicas: newReplicas(newReplayer(cfg.Spec, cfg.P, cfg.MemScale), init, false),
		degrees:  g.InDegrees(),
		avgDeg:   g.AvgDegree(),
	}
	machine := tr.Machine
	tr.caps = sample.FrontierCaps(g.N(), cfg.Batch, cfg.Fanouts)
	// The host feature store: a fresh view struct over the dataset's
	// storage, registered under its own name so the dataset matrix itself
	// is never stamped (other trainers may register the same storage).
	fv := *g.Features
	tr.feat = &fv
	registerDense(tr.reg, tr.reg.Register("host/x"), tr.feat)
	depth := tr.depth()
	for d := 0; d < machine.P; d++ {
		if err := tr.add(init, cfg.LR); err != nil {
			return nil, err
		}
		cache := sample.NewFeatureCache(g.Features, tr.degrees, cfg.CacheFrac)
		if err := machine.Pools[d].Alloc("cache", cache.Slab.Bytes()); err != nil {
			return nil, err
		}
		// The cache is a §4.2-style slab: registered as one, it is in the
		// live-slab universe memcheck and the allocation meter count.
		registerDense(tr.reg, tr.reg.RegisterOn(fmt.Sprintf("d%d/buf/cache", d), d, true), cache.Slab)
		tr.caches = append(tr.caches, cache)
		bufs, err := newSampledBuffers(tr.reg, d, machine.Pools[d], tr.caps, tr.Dims)
		if err != nil {
			return nil, err
		}
		tr.bufs = append(tr.bufs, bufs)
		var slots []sim.BufID
		var samplers []*sample.Sampler
		for k := 0; k < depth; k++ {
			slots = append(slots, tr.reg.RegisterOn(fmt.Sprintf("d%d/slot%d", d, k), d, false))
			samplers = append(samplers, sample.NewSampler(g.Adj, cfg.Fanouts))
		}
		tr.slotBufs = append(tr.slotBufs, slots)
		tr.samplers = append(tr.samplers, samplers)
		tr.labels = append(tr.labels, make([]int32, tr.caps[cfg.Layers]))
	}
	for v := 0; v < g.N(); v++ {
		if g.TrainMask == nil || g.TrainMask[v] {
			tr.trainVerts = append(tr.trainVerts, int32(v))
		}
		if g.ValMask != nil && g.ValMask[v] {
			tr.valVerts = append(tr.valVerts, int32(v))
		}
	}
	return tr, nil
}

// depth returns the handoff slot count: 2 when pipelined, 1 otherwise.
func (tr *SampledTrainer) depth() int {
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
		f := float64(tr.Cfg.Fanouts[h])
		if tr.avgDeg < f {
			f = tr.avgDeg
		}
		e := float64(verts[h+1]) * (1 + f) // + self-loops
		edges[h] = int64(e)
		v := int(e)
		if v > n {
			v = n
		}
		verts[h] = v
	}
	return verts, edges
}

// slotState is one handoff slot's host-side payload: the sampled blocks the
// sampler stage produces and every trainer closure sizes its slab views
// from. The recorded closures read and write it through the slot pointer at
// replay time; the opaque slot pseudo-buffer is its sanitizer-visible name.
type slotState struct {
	blocks []*sample.Block
}

// SampledEpochStats reports one sampled epoch (or, after a mid-epoch
// resume, the remaining segment of one): loss and accuracy are normalized
// over the rows actually processed by the call.
type SampledEpochStats struct {
	EpochSeconds float64
	KindBusy     map[sim.Kind]float64
	Loss         float64
	TrainAcc     float64
	// ValAcc is the validation accuracy after the epoch completed, filled
	// only when the config tracks validation (TrackVal or a patience) and
	// the graph has validation vertices; otherwise it stays 0.
	ValAcc  float64
	Batches int
	// OverlapRatio is the mean over devices of summed per-stream busy time
	// divided by the makespan: ~1 when the stages serialize, >1 when the
	// sampler stream genuinely overlaps training.
	OverlapRatio float64
	Tasks        []*sim.Task
	Sched        *sim.Schedule
}

func (s *SampledEpochStats) dropTimeline()       { s.Tasks, s.Sched = nil, nil }
func (s *SampledEpochStats) validation() float64 { return s.ValAcc }

// RunEpoch performs one sampled epoch: the epoch plan's batches are
// round-robined over devices step by step; each step samples, extracts,
// trains, all-reduces the summed step-mean gradient across the full group,
// and applies Adam on every replica. Devices left without a batch on the
// tail step contribute zero gradients, so weights stay replicated. After a
// mid-epoch checkpoint restore, the first call completes the in-flight
// epoch from the cursor's batch onward.
func (tr *SampledTrainer) RunEpoch() (*SampledEpochStats, error) {
	return tr.RunSteps(-1)
}

// RunSteps records and replays at most maxSteps steps (one step trains P
// batches) and then stops with the cursor parked on the next step boundary
// — the seam mid-epoch checkpoints and their tests drive. A negative
// maxSteps runs to the end of the epoch.
func (tr *SampledTrainer) RunSteps(maxSteps int) (*SampledEpochStats, error) {
	// NewSampledTrainer rejects phantom datasets, but every closure bound
	// below touches real storage — keep the guarantee local too.
	if tr.feat.IsPhantom() {
		return nil, fmt.Errorf("core: sampled training needs real features")
	}
	p := tr.Machine.P
	spec := tr.Machine.Spec
	L := tr.Cfg.Layers
	d0 := tr.Dims[0]
	classes := tr.Dims[L]
	workers := tr.Cfg.Workers
	depth := tr.depth()

	epoch := tr.cursor.Epoch
	plan := sample.PlanEpoch(tr.trainVerts, tr.Cfg.Batch, tr.Cfg.Seed, epoch)
	B := len(plan.Batches)
	start := tr.cursor.NextBatch
	stats := &SampledEpochStats{}
	if B == 0 || start >= B {
		tr.cursor = samplerCursor{Epoch: epoch + 1}
		return stats, nil
	}
	steps := (B - start + p - 1) / p
	if maxSteps >= 0 && steps > maxSteps {
		steps = maxSteps
	}
	if steps == 0 {
		return stats, nil
	}
	// end is one past the last batch this segment trains; the cursor lands
	// there (or rolls over) only after the replay succeeds.
	end := start + steps*p
	if end > B {
		end = B
	}
	stats.Batches = end - start

	tg, cg := tr.record(&tr.Cfg.execEnv)

	slots := make([][]slotState, p)
	for d := range slots {
		slots[d] = make([]slotState, depth)
	}
	// Per-batch loss slots, folded in batch order after the replay so
	// concurrent execution stays deterministic.
	lossSum := make([]float64, B)
	correct := make([]int, B)
	prevAdam := make([][]int, steps) // prevAdam[s][d]
	spmm0 := make([]int, p)          // spmm0[d]: device d's latest layer-0 SpMM, X's reader

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
			b := start + s*p + d
			if b >= B {
				// Tail step without a batch for this device: contribute
				// zero gradients so the full-group all-reduce still sums a
				// step-mean gradient and replicas stay identical.
				gs := tr.grads[d]
				id := tg.AddCompute(d, sim.KindActivation, fmt.Sprintf("s%d/zerograd", s), -1,
					spec.ElementwiseCost(tr.paramCount, 0), true)
				tg.BindShaped(id, nil, sim.ShapesOf(gs...), func() {
					for _, g := range gs {
						g.Zero()
					}
				})
				for l := 0; l < L; l++ {
					wgradID[l] = append(wgradID[l], id)
				}
				continue
			}
			slot := &slots[d][s%depth]
			slotBuf := tr.slotBufs[d][s%depth]
			stepSlots[d] = slotBuf
			slotShape := []sim.ViewShape{sim.OpaqueShape(slotBuf)}
			bufs := tr.bufs[d]
			batch := plan.Batches[b]
			seed := plan.Seeds[b]
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
				sampDeps = append(sampDeps, prevAdam[s-depth][d])
			}
			sampler := tr.samplers[d][s%depth]
			sampID := tg.AddStage(d, sim.StreamSample, sim.KindSample,
				fmt.Sprintf("s%d/sample", s), -1,
				spec.SampleCost(int64(tr.s(int(totalEdges)))), true, sampDeps...)
			tg.BindShaped(sampID, nil, slotShape, func() {
				slot.blocks = sampler.Build(batch, seed)
			})

			// --- Sampler stage: extract (feature gather through cache into
			// the device's one staging slab) ---
			// X's only reader is the layer-0 SpMM, so the slab is free again
			// once step s-1's has run; the slots double-buffer the blocks.
			extDeps := []int{sampID}
			if s > 0 {
				extDeps = append(extDeps, spmm0[d])
			}
			cache := tr.caches[d]
			meter := tr.Cfg.CommMeter
			feat := tr.feat
			expHit := int64(float64(tr.s(verts[0])) * cache.MassFraction)
			extID := tg.AddStage(d, sim.StreamSample, sim.KindExtract,
				fmt.Sprintf("s%d/extract", s), -1,
				spec.GatherCost(expHit, int64(tr.s(verts[0]))-expHit, d0), true, extDeps...)
			tg.BindShaped(extID,
				append(sim.ShapesOf(cache.Slab, feat), sim.OpaqueShape(slotBuf)),
				append(slotShape, sim.OpaqueShape(bufs.X.id)), func() {
					src := slot.blocks[0].Src
					h0 := bufs.X.View(len(src), d0)
					hit, miss := cache.Gather(h0, feat, src)
					meter.Add(sim.CollGatherHit, int64(hit)*int64(d0))
					meter.Add(sim.CollGatherMiss, int64(miss)*int64(d0))
				})

			// --- Trainer stage: forward (aggregate-then-transform) ---
			prev := extID
			for l := 0; l < L; l++ {
				l := l
				dIn, dOut := tr.Dims[l], tr.Dims[l+1]
				w := tr.weights[d][l]
				in := bufs.X
				if l > 0 {
					in = bufs.OUT[l-1]
				}
				ah, out := bufs.AH[l], bufs.OUT[l]
				spmmID := tg.AddCompute(d, sim.KindSpMM, fmt.Sprintf("s%d/fwd%d/spmm", s, l), -1,
					spec.SpMMCost(int64(tr.s(int(edges[l]))), tr.s(verts[l+1]), tr.s(verts[l]), dIn), true, prev)
				tg.BindShaped(spmmID,
					append(slotShape, sim.OpaqueShape(in.id)),
					[]sim.ViewShape{sim.OpaqueShape(ah.id)}, func() {
						adj := slot.blocks[l].Adj
						sparse.ParallelSpMM(adj, in.View(adj.Cols, dIn), 0, ah.View(adj.Rows, dIn), workers)
					})
				if l == 0 {
					spmm0[d] = spmmID
				}
				gemmID := tg.AddCompute(d, sim.KindGeMM, fmt.Sprintf("s%d/fwd%d/gemm", s, l), -1,
					spec.GemmCost(tr.s(verts[l+1]), dIn, dOut), false, spmmID)
				tg.BindShaped(gemmID,
					append(sim.ShapesOf(w), sim.OpaqueShape(slotBuf), sim.OpaqueShape(ah.id)),
					[]sim.ViewShape{sim.OpaqueShape(out.id)}, func() {
						rows := slot.blocks[l].Adj.Rows
						tensor.ParallelGemm(1, ah.View(rows, dIn), w, 0, out.View(rows, dOut), workers)
					})
				prev = gemmID
				if l < L-1 {
					reluID := tg.AddCompute(d, sim.KindActivation, fmt.Sprintf("s%d/fwd%d/relu", s, l), -1,
						spec.ElementwiseCost(int64(tr.s(verts[l+1]))*int64(dOut), 1), true, prev)
					tg.BindShaped(reluID,
						append(slotShape, sim.OpaqueShape(out.id)),
						[]sim.ViewShape{sim.OpaqueShape(out.id)}, func() {
							z := out.View(slot.blocks[l].Adj.Rows, dOut)
							tensor.ReLU(z, z)
						})
					prev = reluID
				}
			}

			// --- Loss: sum over the batch, gradient scaled 1/stepRows so
			// the all-reduced sum is the exact step-mean gradient. ---
			labels := tr.Graph.Labels
			labelBuf := tr.labels[d]
			norm := stepRows
			lossID := tg.AddCompute(d, sim.KindLoss, fmt.Sprintf("s%d/loss", s), -1,
				spec.LossCost(tr.s(len(batch)), classes), true, prev)
			tg.BindShaped(lossID,
				append(slotShape, sim.OpaqueShape(bufs.OUT[L-1].id)),
				[]sim.ViewShape{sim.OpaqueShape(bufs.G.id)}, func() {
					dst := slot.blocks[L-1].Dst
					logits := bufs.OUT[L-1].View(len(dst), classes)
					lb := labelBuf[:len(dst)]
					for i, v := range dst {
						lb[i] = labels[v]
					}
					g := bufs.G.View(len(dst), classes)
					lossSum[b] = nn.SoftmaxCrossEntropySum(logits, lb, nil, g, norm)
					correct[b], _ = nn.CorrectCount(logits, lb, nil)
				})
			prev = lossID

			// --- Backward: per layer mask → wgrad → (hgrad → SpMMᵀ). G holds
			// ∂/∂z_l on the destination frontier: the weight gradient reads
			// AH_l against it, t = G·W_lᵀ then takes AH_l's place, and
			// G ← A_lᵀ·t carries the gradient to the source frontier. Layer 0
			// has nothing below it to propagate to, so it stops at wgrad. ---
			for l := L - 1; l >= 0; l-- {
				l := l
				dIn, dOut := tr.Dims[l], tr.Dims[l+1]
				ah, out := bufs.AH[l], bufs.OUT[l]
				if l < L-1 {
					// Mask the gradient in place by the forward activation.
					reluID := tg.AddCompute(d, sim.KindActivation, fmt.Sprintf("s%d/bwd%d/relu", s, l), -1,
						spec.ElementwiseCost(int64(tr.s(verts[l+1]))*int64(dOut), 2), true, prev)
					tg.BindShaped(reluID,
						append(slotShape, sim.OpaqueShape(out.id), sim.OpaqueShape(bufs.G.id)),
						[]sim.ViewShape{sim.OpaqueShape(bufs.G.id)}, func() {
							rows := slot.blocks[l].Adj.Rows
							g := bufs.G.View(rows, dOut)
							tensor.ReLUBackward(g, g, out.View(rows, dOut))
						})
					prev = reluID
				}
				w := tr.weights[d][l]
				grad := tr.grads[d][l]
				wgID := tg.AddCompute(d, sim.KindGeMM, fmt.Sprintf("s%d/bwd%d/wgrad", s, l), -1,
					spec.GemmCost(dIn, tr.s(verts[l+1]), dOut), false, prev)
				tg.BindShaped(wgID,
					append(slotShape, sim.OpaqueShape(ah.id), sim.OpaqueShape(bufs.G.id)),
					sim.ShapesOf(grad), func() {
						rows := slot.blocks[l].Adj.Rows
						tensor.ParallelGemmTA(1, ah.View(rows, dIn), bufs.G.View(rows, dOut), 0, grad, workers)
					})
				wgradID[l] = append(wgradID[l], wgID)
				if l == 0 {
					break
				}
				hgID := tg.AddCompute(d, sim.KindGeMM, fmt.Sprintf("s%d/bwd%d/hgrad", s, l), -1,
					spec.GemmCost(tr.s(verts[l+1]), dOut, dIn), false, wgID)
				tg.BindShaped(hgID,
					append(sim.ShapesOf(w), sim.OpaqueShape(slotBuf), sim.OpaqueShape(bufs.G.id)),
					[]sim.ViewShape{sim.OpaqueShape(ah.id)}, func() {
						rows := slot.blocks[l].Adj.Rows
						tensor.ParallelGemmTB(1, bufs.G.View(rows, dOut), w, 0, ah.View(rows, dIn), workers)
					})
				spmmID := tg.AddCompute(d, sim.KindSpMM, fmt.Sprintf("s%d/bwd%d/spmm", s, l), -1,
					spec.SpMMCost(int64(tr.s(int(edges[l]))), tr.s(verts[l]), tr.s(verts[l+1]), dIn), true, hgID)
				tg.BindShaped(spmmID,
					append(slotShape, sim.OpaqueShape(ah.id)),
					[]sim.ViewShape{sim.OpaqueShape(bufs.G.id)}, func() {
						at := slot.blocks[l].AdjT
						sparse.ParallelSpMM(at, ah.View(at.Cols, dIn), 0, bufs.G.View(at.Rows, dIn), workers)
					})
				prev = spmmID
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
		prevAdam[s] = tr.recordAdam(tg, fmt.Sprintf("s%d/adam", s), lastAR, stepSlots)
	}

	if err := tr.replay(&tr.Cfg.execEnv, tg); err != nil {
		return nil, err
	}
	var totalCorrect, rows int
	for b := start; b < end; b++ {
		rows += len(plan.Batches[b])
		stats.Loss += lossSum[b]
		totalCorrect += correct[b]
	}
	// For a full epoch rows == len(trainVerts) (every train vertex appears
	// in exactly one batch), so whole-epoch stats are unchanged by the
	// segment refactor; a resumed segment normalizes over its own rows.
	stats.Loss /= float64(rows)
	stats.TrainAcc = float64(totalCorrect) / float64(rows)
	if err := tr.checkFinite(stats.Loss); err != nil {
		return nil, err
	}
	// The replay succeeded and the numbers are sane: commit the cursor.
	if end >= B {
		tr.cursor = samplerCursor{Epoch: epoch + 1}
		if (tr.Cfg.TrackVal || tr.Cfg.EarlyStopPatience > 0) && len(tr.valVerts) > 0 {
			stats.ValAcc = tr.valAccuracy(epoch)
		}
	} else {
		tr.cursor.NextBatch = end
	}

	sched := tg.Run()
	stats.EpochSeconds = sched.Makespan
	stats.KindBusy = sched.KindBusy
	stats.Tasks = tg.Tasks
	stats.Sched = sched
	if sched.Makespan > 0 {
		var util float64
		for d := 0; d < p; d++ {
			var busy float64
			for s := 0; s < int(sim.NumStreams); s++ {
				busy += sched.DeviceBusy[d][s]
			}
			util += busy / sched.Makespan
		}
		stats.OverlapRatio = util / float64(p)
	}
	return stats, nil
}

// Train runs up to epochs sampled epochs; only the last returned epoch keeps
// the heavyweight task/schedule payload. With EarlyStopPatience > 0 and
// validation vertices present, the run stops once that many consecutive
// epochs pass without improving the best validation accuracy — the
// returned slice is then shorter than epochs.
func (tr *SampledTrainer) Train(epochs int) ([]*SampledEpochStats, error) {
	log := runLog[*SampledEpochStats]{patience: tr.patience()}
	for e := 0; e < epochs; e++ {
		s, err := tr.RunEpoch()
		if err != nil {
			return log.stats, err
		}
		if log.add(s) {
			break
		}
	}
	return log.stats, nil
}

// patience returns the early-stopping patience in force: the configured
// one when there are validation vertices to track, otherwise 0 (off).
func (tr *SampledTrainer) patience() int {
	if len(tr.valVerts) == 0 {
		return 0
	}
	return tr.Cfg.EarlyStopPatience
}

// valAccuracy evaluates the current model on the validation vertices with a
// sampled forward on device 0 (replicas are identical at epoch boundaries),
// outside the task graph: the replay is over, so the device's sampler, cache
// and slabs are idle, and it runs the training step's forward — same
// kernels, same layer order — through them. Validation batches run in
// natural order at the training batch size; their sampler seeds come from
// SplitSeed(seed, epoch, -2-b), disjoint from both the epoch shuffle (-1)
// and every training batch (b >= 0), so tracking validation never perturbs
// the training pipeline's sampling stream or its determinism.
func (tr *SampledTrainer) valAccuracy(epoch int) float64 {
	// NewSampledTrainer rejects phantom datasets; keep the guarantee local.
	if tr.feat.IsPhantom() {
		return 0
	}
	L := tr.Cfg.Layers
	ws, bufs, workers := tr.weights[0], tr.bufs[0], tr.Cfg.Workers
	totalCorrect := 0
	for b, lo := 0, 0; lo < len(tr.valVerts); b, lo = b+1, lo+tr.Cfg.Batch {
		hi := min(lo+tr.Cfg.Batch, len(tr.valVerts))
		seed := sample.SplitSeed(tr.Cfg.Seed, epoch, -2-b)
		blocks := tr.samplers[0][0].Build(tr.valVerts[lo:hi], seed)
		h := bufs.X.View(len(blocks[0].Src), tr.Dims[0])
		tr.caches[0].Gather(h, tr.feat, blocks[0].Src)
		for l := 0; l < L; l++ {
			adj := blocks[l].Adj
			ah := bufs.AH[l].View(adj.Rows, tr.Dims[l])
			sparse.ParallelSpMM(adj, h, 0, ah, workers)
			h = bufs.OUT[l].View(adj.Rows, tr.Dims[l+1])
			tensor.ParallelGemm(1, ah, ws[l], 0, h, workers)
			if l < L-1 {
				tensor.ReLU(h, h)
			}
		}
		dst := blocks[L-1].Dst
		lb := tr.labels[0][:len(dst)]
		for i, v := range dst {
			lb[i] = tr.Graph.Labels[v]
		}
		c, _ := nn.CorrectCount(h, lb, nil)
		totalCorrect += c
	}
	return float64(totalCorrect) / float64(len(tr.valVerts))
}

// Caches returns the per-device feature caches (read-only introspection).
func (tr *SampledTrainer) Caches() []*sample.FeatureCache { return tr.caches }

// TrainVertexCount returns the number of training vertices in the plan.
func (tr *SampledTrainer) TrainVertexCount() int { return len(tr.trainVerts) }

// ValVertexCount returns the number of validation vertices.
func (tr *SampledTrainer) ValVertexCount() int { return len(tr.valVerts) }

// Cursor returns the sampler cursor — the epoch whose plan the next call
// consumes and the batch index it starts at. Checkpoint v3 persists this
// pair (with the seed and Adam step) so a mid-epoch kill resumes
// bit-identically.
func (tr *SampledTrainer) Cursor() (epoch, nextBatch int) {
	return tr.cursor.Epoch, tr.cursor.NextBatch
}

// Depth returns the handoff slot count (2 pipelined, 1 not).
func (tr *SampledTrainer) Depth() int { return tr.depth() }

// FrontierCapacities returns the provable per-depth frontier bounds the
// slab capacities derive from (sample.FrontierCaps of this config).
func (tr *SampledTrainer) FrontierCapacities() []int {
	return append([]int(nil), tr.caps...)
}
