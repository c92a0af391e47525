package core

import (
	"fmt"
	"math"

	"mggcn/internal/comm"
	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// GATDist runs the forward pass of a Graph Attention Network distributed
// with MG-GCN's 1D row partitioning — the §7 future-work extension. The
// attention scores use the decomposed form e(v,u) = LeakyReLU(s1_u + s2_v),
// so one cheap all-gather of the per-vertex scalars s1 lets every device
// compute and softmax-normalize its whole tile row of attention locally;
// the aggregation then runs as the standard staged-broadcast SpMM over the
// same L+3 buffers (§4.2 generalizes unchanged).
type GATDist struct {
	Cfg   Config
	Model *nn.GAT

	replayer
	*partitioned
	graph *graph.Graph
}

// NewGATDist partitions the graph and replicates the GAT parameters.
// Only Strategy1DRow is supported (the paper's choice).
func NewGATDist(g *graph.Graph, model *nn.GAT, cfg Config) (*GATDist, error) {
	if cfg.Strategy != Strategy1DRow {
		return nil, fmt.Errorf("core: distributed GAT supports only the 1D-row strategy")
	}
	rp := newReplayer(cfg.Spec, cfg.P, cfg.MemScale, g.IsPhantom())
	machine := rp.Machine
	p, err := partitionGraph(g, machine, cfg.Strategy, cfg.Ordering, cfg.BalancedPartition, cfg.PermSeed)
	if err != nil {
		return nil, err
	}
	d := &GATDist{Cfg: cfg, Model: model, replayer: rp, partitioned: p, graph: g}
	maxTile := p.MaxTileRows()
	var params int64
	for _, w := range model.Params() {
		params += int64(w.Rows) * int64(w.Cols)
	}
	// The GAT parameters are shared (read-only) across devices; register
	// them so the access sets can say so.
	for l := 0; l < model.Layers(); l++ {
		registerDense(d.reg, d.reg.Register(fmt.Sprintf("gat/w%d", l)), model.Weights[l])
		registerDense(d.reg, d.reg.Register(fmt.Sprintf("gat/a1-%d", l)), model.AttnSrc[l])
		registerDense(d.reg, d.reg.Register(fmt.Sprintf("gat/a2-%d", l)), model.AttnDst[l])
	}
	for dev := 0; dev < machine.P; dev++ {
		bufs, err := NewDeviceBuffers(d.reg, dev, machine.Pools[dev], p.devs[dev].rows, maxTile, model.Dims, cfg.Strategy, d.phantom)
		if err != nil {
			return nil, err
		}
		p.devs[dev].bufs = bufs
		// Keyed by block for storage identity (see Trainer).
		registerDense(d.reg, d.reg.Register(fmt.Sprintf("b%d/x", p.devs[dev].block)), p.devs[dev].x)
		if err := machine.Pools[dev].Alloc("gat-model", params*4); err != nil {
			return nil, err
		}
		// Per-edge attention values for this device's tile row (raw
		// scores kept through the row-softmax normalization).
		if err := machine.Pools[dev].Alloc("gat-attn", p.devs[dev].adjBytes/2); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Forward runs the distributed forward pass, returning the logits in
// original vertex order (nil in phantom mode) and the epoch statistics.
// A non-nil error is the replay's first task failure (fault-injected or
// real); the logits are then unusable.
func (d *GATDist) Forward() (*tensor.Dense, *EpochStats, error) {
	stats, err := d.epoch(&d.Cfg.execEnv, func(tg *sim.Graph, cg *comm.Group) func(*EpochStats) error {
		d.recordForward(tg, cg)
		return nil
	})
	if err != nil || d.phantom {
		return nil, stats, err
	}
	return d.gatherLogits(d.Model.Dims), stats, nil
}

// recordForward records the L attention layers onto tg.
func (d *GATDist) recordForward(tg *sim.Graph, cg *comm.Group) {
	p := d.Machine.P
	spec := d.Machine.Spec
	rec := layerRecorder{d.partitioned, &d.replayer}

	L := d.Model.Layers()
	dims := d.Model.Dims
	hReady := make([]int, p)
	for i := range hReady {
		hReady[i] = -1
	}
	// The per-vertex score vectors are allocated per epoch, with storage
	// only when the graph will be replayed.
	newScores := tensor.NewDense
	if d.phantom {
		newScores = tensor.NewPhantom
	}

	for l := 0; l < L; l++ {
		dIn, dOut := dims[l], dims[l+1]
		// Z_i = H_i W, s1_i = Z_i a1, s2_i = Z_i a2 on every device.
		zID := make([]int, p)
		zView := d.hwView(dOut)
		s1Local := make([]*tensor.Dense, p)
		s2Local := make([]*tensor.Dense, p)
		for i := 0; i < p; i++ {
			ds := d.devs[i]
			z := zView(i)
			s1, s2 := newScores(ds.rows, 1), newScores(ds.rows, 1)
			s1Local[i], s2Local[i] = s1, s2
			registerDense(d.reg, d.reg.Register(fmt.Sprintf("gat%d/s1-d%d", l, i)), s1)
			registerDense(d.reg, d.reg.Register(fmt.Sprintf("gat%d/s2-d%d", l, i)), s2)
			var deps []int
			if hReady[i] >= 0 {
				deps = append(deps, hReady[i])
			}
			gemmID := tg.AddCompute(i, sim.KindGeMM, fmt.Sprintf("gat%d/gemm", l), -1,
				spec.GemmCost(d.s(d.devs[i].rows), dIn, dOut), false, deps...)
			id := tg.AddCompute(i, sim.KindGeMM, fmt.Sprintf("gat%d/attnvec", l), -1,
				2*spec.GemmCost(d.s(d.devs[i].rows), dOut, 1), false, gemmID)
			in, w := d.inputView(i, l, dims), d.Model.Weights[l]
			tg.BindShaped(gemmID, sim.ShapesOf(in, w), sim.ShapesOf(z),
				func() { tensor.ParallelGemm(1, in, w, 0, z, 0) })
			aSrc, aDst := d.Model.AttnSrc[l], d.Model.AttnDst[l]
			tg.BindShaped(id, sim.ShapesOf(z, aSrc, aDst), sim.ShapesOf(s1, s2), func() {
				tensor.Gemm(1, z, aSrc, 0, s1)
				tensor.Gemm(1, z, aDst, 0, s2)
			})
			zID[i] = id
		}
		// All-gather the per-vertex source scores s1 (n scalars).
		s1Full := newScores(d.graph.N(), 1)
		registerDense(d.reg, d.reg.Register(fmt.Sprintf("gat%d/s1full", l)), s1Full)
		gatherSecs := spec.AllReduceCost(int64(d.s(d.graph.N()))*4, p)
		allDevs := make([]int, p)
		for i := range allDevs {
			allDevs[i] = i
		}
		gatherID := tg.AddComm(allDevs, fmt.Sprintf("gat%d/allgather-s1", l), -1, gatherSecs, zID...)
		// This collective is issued raw (the s1 gather is a concatenation,
		// not one of comm.Group's shape-uniform primitives), so it carries
		// its annotation and meter count by hand. Rows x Cols is the total
		// gathered extent: n scalars.
		tg.AnnotateCollective(gatherID, &sim.Collective{
			Op: sim.CollAllGather, Root: -1, Group: allDevs,
			Rows: d.graph.N(), Cols: 1, Scale: int64(d.Cfg.MemScale),
		})
		cg.Meter.Add(sim.CollAllGather, int64(p-1)*int64(d.graph.N())*int64(d.Cfg.MemScale))
		tg.BindShaped(gatherID, sim.ShapesOf(s1Local...), sim.ShapesOf(s1Full), func() {
			for i := 0; i < p; i++ {
				ds := d.devs[i]
				for r := 0; r < ds.rows; r++ {
					s1Full.Set(ds.lo+r, 0, s1Local[i].At(r, 0))
				}
			}
		})

		// Each device scores and softmax-normalizes its whole tile row of
		// attention locally (it has every column's s1 and its own s2).
		alphaTiles := make([][]*sparse.CSR, p)
		// alphaIDs are untracked pseudo-buffers standing in for the
		// attention-valued CSR tiles (no float32 slab to track): declaring
		// the softmax's write and the aggregation's reads against them gives
		// the sanitizer static happens-before coverage of the handoff.
		alphaIDs := make([]sim.BufID, p)
		scoreID := make([]int, p)
		for i := 0; i < p; i++ {
			ds := d.devs[i]
			var nnzRow int64
			for _, t := range ds.atTiles {
				nnzRow += t.NNZ()
			}
			scoreID[i] = tg.AddCompute(i, sim.KindSpMM, fmt.Sprintf("gat%d/attn-softmax", l), -1,
				spec.ElementwiseCost(nnzRow*int64(d.Cfg.MemScale), 3), true, gatherID)
			s2 := s2Local[i]
			alphaIDs[i] = d.reg.Register(fmt.Sprintf("gat%d/alpha-d%d", l, i))
			// The aggregation's SpMMs read alphaTiles[i] at replay time,
			// after this task (their scoreID dep).
			tg.BindShaped(scoreID[i], sim.ShapesOf(s1Full, s2), []sim.ViewShape{sim.OpaqueShape(alphaIDs[i])}, func() {
				alphaTiles[i] = attentionRow(ds, s1Full, s2, d.vec, d.Model.LeakySlope)
			})
		}

		// Aggregation: the standard staged-broadcast SpMM with the
		// attention-valued tiles. alphaTiles[i] materializes when scoreID[i]
		// (a dep of every SpMM on device i) replays, so it is resolved then.
		last := rec.stagedSpMMRow(tg, cg, spmmArgs{
			label: fmt.Sprintf("gat%d/spmm", l), bcastLabel: fmt.Sprintf("gat%d/bcast", l),
			src: zView, dst: d.ahwView(l, dOut),
			width: dOut, srcReady: zID, overlap: d.Cfg.Overlap,
			valued:  func(i, j int) *sparse.CSR { return alphaTiles[i][j] },
			devDeps: scoreID, opaqueReads: alphaIDs,
		})
		if l < L-1 {
			last = rec.relu(tg, fmt.Sprintf("gat%d/relu", l), l, dOut, last)
		}
		copy(hReady, last)
	}
}

// attentionRow computes device ds's attention-valued tiles: raw scores
// e(v,u) = LeakyReLU(s1_u + s2_v) over its tile row, normalized by a
// row-softmax spanning all of the row's tiles.
func attentionRow(ds *deviceState, s1Full, s2 *tensor.Dense, vec interface{ Bounds(int) (int, int) }, slope float32) []*sparse.CSR {
	tiles := make([]*sparse.CSR, len(ds.atTiles))
	// First pass: raw scores and per-row max across the whole tile row.
	rowMax := make([]float32, ds.rows)
	for r := range rowMax {
		rowMax[r] = float32(math.Inf(-1))
	}
	for j, t := range ds.atTiles {
		c0, _ := vec.Bounds(j)
		vals := make([]float32, t.NNZ())
		for v := 0; v < t.Rows; v++ {
			dst := s2.At(v, 0)
			for k := t.RowPtr[v]; k < t.RowPtr[v+1]; k++ {
				e := s1Full.At(c0+int(t.ColIdx[k]), 0) + dst
				if e < 0 {
					e *= slope
				}
				vals[k] = e
				if e > rowMax[v] {
					rowMax[v] = e
				}
			}
		}
		tiles[j] = &sparse.CSR{Rows: t.Rows, Cols: t.Cols, RowPtr: t.RowPtr, ColIdx: t.ColIdx, Vals: vals}
	}
	// Second pass: exp and row sums across tiles, then normalize. The sum
	// runs through every tile's segment of the row, an association
	// kernel.ExpRow (one segment's sum from zero) cannot give.
	rowSum := make([]float64, ds.rows)
	for _, t := range tiles {
		for v := 0; v < t.Rows; v++ {
			for k := t.RowPtr[v]; k < t.RowPtr[v+1]; k++ {
				e := math.Exp(float64(t.Vals[k] - rowMax[v]))
				t.Vals[k] = float32(e)
				rowSum[v] += e
			}
		}
	}
	for _, t := range tiles {
		for v := 0; v < t.Rows; v++ {
			if rowSum[v] == 0 {
				continue
			}
			inv := float32(1 / rowSum[v])
			for k := t.RowPtr[v]; k < t.RowPtr[v+1]; k++ {
				t.Vals[k] *= inv
			}
		}
	}
	return tiles
}
