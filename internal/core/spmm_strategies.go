package core

import (
	"fmt"

	"mggcn/internal/comm"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// stagedSpMMCol is the §4.1 column-distribution alternative: device j owns
// tile column j, so at stage i every device multiplies its (i, j) tile by
// its *resident* src block — no input communication — and the partial
// results are summed at the output owner with a reduction. Communication
// is P reductions of an output block instead of P broadcasts of an input
// block.
//
// Buffer use mirrors the row variant: non-owners compute their partial
// into a BC buffer (double-buffered across stages when overlap is on); the
// owner computes directly into its dst, which the reduction accumulates
// into.
func (tr *Trainer) stagedSpMMCol(tg *sim.Graph, cg *comm.Group, a spmmArgs) []int {
	p := tr.Machine.P
	if len(a.srcReady) != p {
		panic(fmt.Sprintf("core: stagedSpMMCol srcReady has %d entries for %d devices", len(a.srcReady), p))
	}
	spec := tr.Machine.Spec
	last := make([]int, p)
	var prevReduce, prevPrevReduce int = -1, -1
	for i := 0; i < p; i++ { // stage i fills output block i
		outRows := tr.devs[i].rows
		partials := make([]*tensor.Dense, p)
		stageIDs := make([]int, 0, p)
		for j := 0; j < p; j++ {
			dev := tr.devs[j]
			var out *tensor.Dense
			if j == i {
				out = a.dst(i)
			} else {
				out = dev.bufs.BC(i, a.overlap).View(outRows, a.width)
			}
			partials[j] = out
			var deps []int
			if a.srcReady[j] >= 0 {
				deps = append(deps, a.srcReady[j])
			}
			// Do not overwrite the BC partial while the previous stage's
			// reduction is still reading it (or the one before, with
			// double buffering).
			if a.overlap {
				if prevPrevReduce >= 0 {
					deps = append(deps, prevPrevReduce)
				}
			} else if prevReduce >= 0 {
				deps = append(deps, prevReduce)
			}
			tile := a.tiles(j)[i]
			cost := spec.SpMMCost(tile.NNZ()*int64(tr.Cfg.MemScale), tr.s(outRows), tr.s(dev.rows), a.width)
			id := tg.AddCompute(j, sim.KindSpMM, a.label, i, cost, true, deps...)
			if !tr.phantom {
				src := a.src(j)
				tg.BindShaped(id, sim.ShapesOf(src), sim.ShapesOf(out),
					func() { sparse.ParallelSpMM(tile, src, 0, out, tr.Cfg.Workers) })
			}
			stageIDs = append(stageIDs, id)
		}
		if p > 1 {
			reduceID := cg.ReduceSum(i, partials, a.label+"/reduce", stageIDs...)
			last[i] = reduceID
			prevPrevReduce = prevReduce
			prevReduce = reduceID
		} else {
			last[i] = stageIDs[0]
		}
	}
	return last
}

// stagedSpMM15D is CAGNET's 1.5D algorithm with replication factor 2
// (§5.1): the machine splits into two replica groups; every block is owned
// by one device per group, and each group runs only its half of the
// broadcast stages (stage j belongs to group j mod 2) before a cross-group
// all-reduce of the partial outputs completes every block on both
// replicas. Broadcast volume halves; the inter-group reduction pays the
// DGX-1 topology's 2-link penalty — and the feature memory doubles.
func (tr *Trainer) stagedSpMM15D(tg *sim.Graph, cg *comm.Group, a spmmArgs) []int {
	p := tr.Machine.P
	if len(a.srcReady) != p {
		panic(fmt.Sprintf("core: stagedSpMM15D srcReady has %d entries for %d devices", len(a.srcReady), p))
	}
	blocks := tr.blocks
	spec := tr.Machine.Spec
	groupDevs := func(g int) []int {
		ds := make([]int, blocks)
		for i := range ds {
			ds[i] = g*blocks + i
		}
		return ds
	}
	// lastLocal[d] is the final group-local task on device d; stagesDone[d]
	// counts stages a device has accumulated (for beta selection and the
	// zero-stage corner case).
	lastLocal := make([]int, p)
	stagesDone := make([]int, p)
	for d := range lastLocal {
		lastLocal[d] = -1
	}

	for g := 0; g < 2; g++ {
		devs := groupDevs(g)
		sub := cg.Sub(devs)
		localStage := 0
		var prevStage, prevPrevStage []int
		for j := g; j < blocks; j += 2 {
			rootDev := g*blocks + j
			rootRows := tr.devs[rootDev].rows
			var bcastID = -1
			if blocks > 1 {
				var deps []int
				if a.srcReady[rootDev] >= 0 {
					deps = append(deps, a.srcReady[rootDev])
				}
				if a.overlap {
					deps = append(deps, prevPrevStage...)
				} else {
					deps = append(deps, prevStage...)
				}
				bcDst := make([]*tensor.Dense, blocks)
				for pos, d := range devs {
					bcDst[pos] = tr.devs[d].bufs.BC(localStage, a.overlap).View(rootRows, a.width)
				}
				bcastID = sub.Broadcast(j, a.src(rootDev), bcDst, a.label+"/bcast", j, deps...)
			}
			stage := make([]int, 0, blocks)
			for _, d := range devs {
				dev := tr.devs[d]
				var xin *tensor.Dense
				var deps []int
				if d == rootDev {
					xin = a.src(rootDev)
					if a.srcReady[rootDev] >= 0 {
						deps = append(deps, a.srcReady[rootDev])
					}
				} else {
					xin = dev.bufs.BC(localStage, a.overlap).View(rootRows, a.width)
					deps = append(deps, bcastID)
				}
				tile := a.tiles(d)[j]
				var beta float32
				if stagesDone[d] > 0 {
					beta = 1
				}
				cost := spec.SpMMCost(tile.NNZ()*int64(tr.Cfg.MemScale), tr.s(dev.rows), tr.s(rootRows), a.width)
				id := tg.AddCompute(d, sim.KindSpMM, a.label, j, cost, true, deps...)
				if !tr.phantom {
					dst := a.dst(d)
					tg.BindShaped(id, sim.ShapesOf(xin), sim.ShapesOf(dst),
						func() { sparse.ParallelSpMM(tile, xin, beta, dst, tr.Cfg.Workers) })
				}
				stage = append(stage, id)
				lastLocal[d] = id
				stagesDone[d]++
			}
			prevPrevStage = prevStage
			prevStage = stage
			localStage++
		}
	}

	// Devices whose group ran zero stages (possible only when blocks == 1)
	// must contribute a zeroed partial. The fill is a zero-cost compute task
	// (recorded in phantom mode too, so phantom and real task graphs agree)
	// so the executor orders it before the pair all-reduce that reads it.
	for d := 0; d < p; d++ {
		if stagesDone[d] == 0 {
			id := tg.AddCompute(d, sim.KindSpMM, a.label+"/zerofill", -1, 0, false)
			if !tr.phantom {
				dst := a.dst(d)
				tg.BindShaped(id, nil, sim.ShapesOf(dst), func() { dst.Zero() })
			}
			lastLocal[d] = id
		}
	}

	// Cross-group pairwise all-reduce: device d and its replica d+blocks
	// sum their partial outputs; both end up with the complete block.
	last := make([]int, p)
	for b := 0; b < blocks; b++ {
		d0, d1 := b, blocks+b
		pair := cg.Sub([]int{d0, d1})
		var deps []int
		for _, d := range []int{d0, d1} {
			if lastLocal[d] >= 0 {
				deps = append(deps, lastLocal[d])
			}
		}
		id := pair.AllReduceSumScaled([]*tensor.Dense{a.dst(d0), a.dst(d1)}, a.label+"/xgroup", deps...)
		last[d0], last[d1] = id, id
	}
	return last
}
