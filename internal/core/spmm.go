package core

import (
	"fmt"

	"mggcn/internal/comm"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// spmmArgs describes one distributed multi-stage SpMM (§4.1, Fig 2-3):
// dst_i = Σ_j tiles(i)[j] · src(j), where device j broadcasts its resident
// src block at stage j and every device multiplies its (i,j) tile into its
// local accumulator.
type spmmArgs struct {
	label string
	// tiles(i) returns device i's P tiles (local indices).
	tiles func(i int) []*sparse.CSR
	// src(j) is device j's resident input block (rows_j x width).
	src func(j int) *tensor.Dense
	// dst(i) is device i's output block (rows_i x width), overwritten.
	dst   func(i int) *tensor.Dense
	width int
	// srcReady[j] is the task that produced src(j), or -1.
	srcReady []int
	overlap  bool
}

// distSpMM dispatches the distributed SpMM to the configured strategy.
func (tr *Trainer) distSpMM(tg *sim.Graph, cg *comm.Group, a spmmArgs) []int {
	switch tr.Cfg.Strategy {
	case Strategy1DCol:
		return tr.stagedSpMMCol(tg, cg, a)
	case Strategy15D:
		return tr.stagedSpMM15D(tg, cg, a)
	default:
		return tr.stagedSpMM(tg, cg, a)
	}
}

// withAT binds the forward tiles (Âᵀ) to the args.
func (a spmmArgs) withAT(tr *Trainer) spmmArgs {
	a.tiles = func(i int) []*sparse.CSR { return tr.devs[i].atTiles }
	return a
}

// withA binds the backward tiles (Â) to the args.
func (a spmmArgs) withA(tr *Trainer) spmmArgs {
	a.tiles = func(i int) []*sparse.CSR { return tr.devs[i].aTiles }
	return a
}

// stagedSpMM records (and, in non-phantom mode, executes) the multi-stage
// SpMM, returning per-device IDs of each device's final SpMM task.
//
// Dependency structure (§4.3): stage j's broadcast waits on the producer of
// src(j) and — for buffer safety — on every device's stage j-1 SpMM when
// overlap is off (single BC buffer), or stage j-2 when on (double
// buffering: "the i+1-th broadcast waits for the i-1-th SpMM to finish not
// to overwrite its input"). Stage j's SpMM on device i != j waits on the
// broadcast; the root's own SpMM needs no communication.
func (tr *Trainer) stagedSpMM(tg *sim.Graph, cg *comm.Group, a spmmArgs) []int {
	p := tr.Machine.P
	if len(a.srcReady) != p {
		panic(fmt.Sprintf("core: stagedSpMM srcReady has %d entries for %d devices", len(a.srcReady), p))
	}
	spec := tr.Machine.Spec
	last := make([]int, p)
	var prevStage, prevPrevStage []int
	for j := 0; j < p; j++ {
		rootRows := tr.devs[j].rows
		var bcastID = -1
		if p > 1 {
			var deps []int
			if a.srcReady[j] >= 0 {
				deps = append(deps, a.srcReady[j])
			}
			if a.overlap {
				deps = append(deps, prevPrevStage...)
			} else {
				deps = append(deps, prevStage...)
			}
			bcDst := make([]*tensor.Dense, p)
			for i := 0; i < p; i++ {
				bcDst[i] = tr.devs[i].bufs.BC(j, a.overlap).View(rootRows, a.width)
			}
			bcastID = cg.Broadcast(j, a.src(j), bcDst, a.label+"/bcast", j, deps...)
		}
		stage := make([]int, 0, p)
		for i := 0; i < p; i++ {
			dev := tr.devs[i]
			var xin *tensor.Dense
			var deps []int
			if i == j {
				xin = a.src(j)
				if a.srcReady[j] >= 0 {
					deps = append(deps, a.srcReady[j])
				}
			} else {
				xin = dev.bufs.BC(j, a.overlap).View(rootRows, a.width)
				deps = append(deps, bcastID)
			}
			tile := a.tiles(i)[j]
			var beta float32
			if j > 0 {
				beta = 1
			}
			cost := spec.SpMMCost(tile.NNZ()*int64(tr.Cfg.MemScale), tr.s(dev.rows), tr.s(rootRows), a.width)
			id := tg.AddCompute(i, sim.KindSpMM, a.label, j, cost, true, deps...)
			if !tr.phantom {
				dst := a.dst(i)
				// dst is Writes even at beta=0: Writes means read-and-write,
				// and the accumulating stages (beta=1) do read it.
				tg.BindShaped(id, sim.ShapesOf(xin), sim.ShapesOf(dst),
					func() { sparse.ParallelSpMM(tile, xin, beta, dst, tr.Cfg.Workers) })
			}
			stage = append(stage, id)
			last[i] = id
		}
		prevPrevStage = prevStage
		prevStage = stage
	}
	return last
}
