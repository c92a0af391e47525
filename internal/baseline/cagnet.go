package baseline

import (
	"fmt"

	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/part"
	"mggcn/internal/sim"
)

// CAGNETConfig models CAGNET's 1D algorithm (its best-performing variant in
// the paper's runs): the same staged-broadcast SpMM as MG-GCN, but
// stage-synchronous (broadcast and compute strictly alternate, no overlap),
// with no order switch, no saved backward SpMM, no vertex permutation,
// PyTorch-kernel efficiency, and NCCL 2.4 collective efficiency.
type CAGNETConfig struct {
	Spec     sim.MachineSpec
	P        int
	MemScale int
	Hidden   int
	Layers   int
	// KernelEfficiency scales kernel throughput relative to the tuned
	// C++/cuSPARSE pipeline (PyTorch-dispatched kernels plus the extra
	// tensor materializations CAGNET performs per stage).
	KernelEfficiency float64
	// CommEfficiency scales collective bandwidth (NCCL 2.4 vs 2.11).
	CommEfficiency float64
	OpOverhead     float64
}

// NewCAGNET returns the default CAGNET model.
func NewCAGNET(spec sim.MachineSpec, p, memScale, hidden, layers int) CAGNETConfig {
	return CAGNETConfig{
		Spec: spec, P: p, MemScale: memScale, Hidden: hidden, Layers: layers,
		KernelEfficiency: 0.85, CommEfficiency: 0.8, OpOverhead: 100e-6,
	}
}

// EpochSeconds builds and schedules one CAGNET epoch, returning its
// simulated makespan.
func (c CAGNETConfig) EpochSeconds(g *graph.Graph) float64 {
	return c.EpochGraph(g).Run().Makespan
}

// EpochGraph builds one CAGNET epoch as a task graph: per layer a P-stage
// SpMM at the input width (aggregate-then-transform), with each stage's
// broadcast gating every device's stage compute (synchronous), followed by
// the transform GeMM; the backward mirrors it with both SpMMs. Tile nonzeros
// come from the graph's natural (unpermuted) ordering. Every collective
// carries a sim.Collective annotation, so internal/schedcheck can certify
// the baseline's communication volume like any shipped strategy.
func (c CAGNETConfig) EpochGraph(g *graph.Graph) *sim.Graph {
	spec := c.Spec
	S := int64(c.MemScale)
	tg := sim.NewGraph(spec, c.P)
	vec := part.Uniform(g.N(), c.P)
	tiles := part.TileNNZ(g.Adj, vec)
	dims := nn.LayerDims(g.FeatDim, c.Hidden, c.Layers, g.Classes)

	devices := make([]int, c.P)
	for i := range devices {
		devices[i] = i
	}
	kern := func(raw float64) float64 { return raw/c.KernelEfficiency + c.OpOverhead }

	// stagedSpMM appends one synchronous P-stage SpMM at the given dense
	// width; returns the last task per device.
	stagedSpMM := func(label string, width int) []int {
		last := make([]int, c.P)
		var prevStage []int
		for j := 0; j < c.P; j++ {
			rootRows := int(int64(vec.Size(j)) * S)
			var bcast = -1
			if c.P > 1 {
				bytes := int64(rootRows) * int64(width) * 4
				secs := spec.CommLatency + float64(bytes)/(spec.CollectiveBW(c.P)*c.CommEfficiency)
				bcast = tg.AddComm(devices, label+"/bcast", j, secs, prevStage...)
				tg.AnnotateCollective(bcast, &sim.Collective{
					Op: sim.CollBroadcast, Root: j, Group: devices,
					Rows: vec.Size(j), Cols: width, Scale: S,
				})
			}
			stage := make([]int, 0, c.P)
			for i := 0; i < c.P; i++ {
				rows := int(int64(vec.Size(i)) * S)
				var deps []int
				if bcast >= 0 {
					deps = append(deps, bcast)
				}
				id := tg.AddCompute(i, sim.KindSpMM, label, j,
					kern(spec.SpMMCost(tiles[i][j]*S, rows, rootRows, width)), true, deps...)
				stage = append(stage, id)
				last[i] = id
			}
			prevStage = stage
		}
		return last
	}
	addPerDevice := func(kind sim.Kind, label string, cost func(rows int) float64, deps ...int) []int {
		ids := make([]int, c.P)
		for i := 0; i < c.P; i++ {
			rows := int(int64(vec.Size(i)) * S)
			ids[i] = tg.AddCompute(i, kind, label, -1, kern(cost(rows)), kind == sim.KindSpMM, deps...)
		}
		return ids
	}

	for l := 0; l < c.Layers; l++ {
		dIn, dOut := dims[l], dims[l+1]
		width := dOut
		if dIn < dOut {
			width = dIn
		}
		// Compute tasks on one device serialize in issue order on its
		// compute stream, so the per-device forward chain needs no explicit
		// dependency edges.
		stagedSpMM(fmt.Sprintf("fwd%d/spmm", l), width)
		addPerDevice(sim.KindGeMM, fmt.Sprintf("fwd%d/gemm", l), func(rows int) float64 {
			return spec.GemmCost(rows, dIn, dOut)
		})
		if l < c.Layers-1 {
			addPerDevice(sim.KindActivation, fmt.Sprintf("fwd%d/relu", l), func(rows int) float64 {
				return spec.ElementwiseCost(int64(rows)*int64(dOut), 1)
			})
		}
	}
	addPerDevice(sim.KindLoss, "loss", func(rows int) float64 {
		return spec.LossCost(rows, dims[c.Layers])
	})
	var params int64
	for l := 0; l < c.Layers; l++ {
		params += int64(dims[l]) * int64(dims[l+1])
	}
	lastAllReduce := -1
	for l := c.Layers - 1; l >= 0; l-- {
		dIn, dOut := dims[l], dims[l+1]
		if l < c.Layers-1 {
			addPerDevice(sim.KindActivation, fmt.Sprintf("bwd%d/relu", l), func(rows int) float64 {
				return spec.ElementwiseCost(int64(rows)*int64(dOut), 2)
			})
		}
		wgID := addPerDevice(sim.KindGeMM, fmt.Sprintf("bwd%d/wgrad", l), func(rows int) float64 {
			return spec.GemmCost(dIn, rows, dOut)
		})
		if c.P > 1 {
			// The allreduce runs on the comm stream, which FIFO-order alone
			// does not synchronize with compute: without the wgrad deps it
			// would start at t≈0 and underprice the epoch.
			secs := spec.CommLatency + spec.AllReduceCost(params*4, c.P)/c.CommEfficiency
			lastAllReduce = tg.AddComm(devices, fmt.Sprintf("bwd%d/allreduce", l), -1, secs, wgID...)
			tg.AnnotateCollective(lastAllReduce, &sim.Collective{
				Op: sim.CollAllReduce, Root: -1, Group: devices,
				Rows: int(params), Cols: 1, Scale: 1,
			})
		}
		addPerDevice(sim.KindGeMM, fmt.Sprintf("bwd%d/hgrad", l), func(rows int) float64 {
			return spec.GemmCost(rows, dOut, dIn)
		})
		// CAGNET's manual backprop always propagates the input gradient,
		// including layer 0's full-width SpMM that MG-GCN saves (§4.4).
		stagedSpMM(fmt.Sprintf("bwd%d/spmm", l), dOut)
	}
	// Comm tasks span every device, so the comm stream serializes the
	// allreduces; gating Adam on the last-issued one gates it on all.
	var adamDeps []int
	if lastAllReduce >= 0 {
		adamDeps = append(adamDeps, lastAllReduce)
	}
	addPerDevice(sim.KindAdam, "adam", func(rows int) float64 {
		return spec.AdamCost(params)
	}, adamDeps...)
	return tg
}

// MemoryBytes returns CAGNET's per-GPU footprint at full scale: the local
// adjacency slice, feature shard, 3 persistent buffers per layer plus two
// stage-receive buffers (no reuse), and replicated model state. This is the
// Fig 12b line: ~150 layers in 30 GiB on Reddit-512 with 8 GPUs.
func (c CAGNETConfig) MemoryBytes(g *graph.Graph) int64 {
	S := int64(c.MemScale)
	n := int64(g.N()) * S
	nnz := g.M() * S
	rows := (n + int64(c.P) - 1) / int64(c.P)
	dims := nn.LayerDims(g.FeatDim, c.Hidden, c.Layers, g.Classes)
	maxD := 0
	for _, d := range dims {
		if d > maxD {
			maxD = d
		}
	}
	adj := (rows+1)*8 + nnz/int64(c.P)*8
	feats := rows * int64(g.FeatDim) * 4
	var perLayer int64
	for l := 0; l < c.Layers; l++ {
		perLayer += 3 * rows * int64(dims[l+1]) * 4
	}
	recv := 2 * rows * int64(maxD) * 4
	var params int64
	for l := 0; l < c.Layers; l++ {
		params += int64(dims[l]) * int64(dims[l+1])
	}
	return adj + feats + perLayer + recv + params*4*4
}

// CommTime1D returns the §5.1 closed-form communication time of the 1D
// algorithm for an n x d feature matrix on the spec's 8-GPU machine:
// P broadcasts of nd/P bytes over the full group.
func CommTime1D(spec sim.MachineSpec, n, d int64) float64 {
	bytes := n * d * 4
	return float64(bytes) / spec.CollectiveBW(8)
}

// CommTime15D returns the §5.1 closed-form time of the 1.5D algorithm with
// replication factor 2: two rounds of group broadcasts of nd/4 over 4-GPU
// groups plus a reduction of nd/4 over the inter-group links (only 2 links
// on DGX-1's asymmetric topology; the full fabric behind NVSwitch).
func CommTime15D(spec sim.MachineSpec, n, d int64) float64 {
	bytes := n * d * 4
	groupBW := spec.CollectiveBW(4)
	interBW := float64(spec.GroupLinks(2)) * spec.LinkBW
	if spec.NVSwitch {
		interBW = spec.CollectiveBW(4)
	}
	return 2*float64(bytes/4)/groupBW + float64(bytes/4)/interBW
}
