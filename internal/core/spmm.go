package core

import (
	"fmt"

	"mggcn/internal/comm"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// spmmArgs describes one distributed multi-stage SpMM (§4.1, Fig 2-3):
// dst_i = Σ_j tile(i,j) · src(j) over the resident tiles of Âᵀ (forward) or
// Â (backward).
type spmmArgs struct {
	label string
	// backward selects the Â tiles instead of the Âᵀ ones.
	backward bool
	// src(j) is device j's resident input block (rows_j x width).
	src func(j int) *tensor.Dense
	// dst(i) is device i's output block (rows_i x width), overwritten.
	dst   func(i int) *tensor.Dense
	width int
	// srcReady[j] is the task that produced src(j), or -1.
	srcReady []int
	overlap  bool

	// What the GAT aggregation differs in (stagedSpMMRow only; the zero
	// values are the GCN's). bcastLabel names the stage broadcasts
	// (default label+"/bcast"). valued(i, j), resolved at replay time,
	// replaces device i's resident stage-j tile by one of the same
	// structure — so the same cost — whose values an earlier task computes;
	// devDeps[i] is that task, a dependency of every SpMM on device i, and
	// opaqueReads[i] the pseudo-buffer naming its output in their read sets.
	bcastLabel  string
	valued      func(i, j int) *sparse.CSR
	devDeps     []int
	opaqueReads []sim.BufID
}

// opaqueAt declares the pseudo-buffer ids[d] as an opaque access; nil ids (or
// a zero entry) declare nothing — DeclareShaped drops zero stamps.
func opaqueAt(ids []sim.BufID, d int) sim.ViewShape {
	if ids == nil {
		return sim.ViewShape{}
	}
	return sim.OpaqueShape(ids[d])
}

// layerRecorder is what the layers of a partitioned run are recorded against
// — the part the full-batch trainer and the GAT forward share: the
// partitioned dataset with its per-device buffers and the machine pricing the
// tasks.
type layerRecorder struct {
	*partitioned
	*replayer
}

// compute records one compute task of the given kind per device: device i's
// runs after ready[i] (when >= 0) at cost(i), and bind(i, id) binds its
// closure and declared shapes to the task just added. It returns the task
// IDs. The bind callback keeps the BindShaped call and its closure in one
// place for the vet rules that read them.
func (r layerRecorder) compute(tg *sim.Graph, kind sim.Kind, label string, memBound bool, ready []int,
	cost func(i int) float64, bind func(i, id int)) []int {
	ids := make([]int, r.Machine.P)
	for i := range ids {
		var deps []int
		if ready[i] >= 0 {
			deps = append(deps, ready[i])
		}
		ids[i] = tg.AddCompute(i, kind, label, -1, cost(i), memBound, deps...)
		bind(i, ids[i])
	}
	return ids
}

// relu records the in-place ReLU of layer l's output (width cols) on every
// device i after ready[i], returning the task IDs.
func (r layerRecorder) relu(tg *sim.Graph, label string, l, cols int, ready []int) []int {
	return r.compute(tg, sim.KindActivation, label, true, ready,
		func(i int) float64 { return r.Machine.Spec.ElementwiseCost(int64(r.s(r.devs[i].rows))*int64(cols), 1) },
		func(i, id int) {
			act := r.ahwView(l, cols)(i)
			// In-place: the destination is also read, so Writes
			// (read-and-write) alone covers it.
			tg.BindShaped(id, nil, sim.ShapesOf(act), func() { tensor.ReLU(act, act) })
		})
}

// tiles returns device d's resident tiles for the pass a describes.
func (r layerRecorder) tiles(d int, a spmmArgs) []*sparse.CSR {
	if a.backward {
		return r.devs[d].aTiles
	}
	return r.devs[d].atTiles
}

// distSpMM records the distributed SpMM with the partition's strategy,
// returning per device the task its output block is complete after.
func (r layerRecorder) distSpMM(tg *sim.Graph, cg *comm.Group, a spmmArgs) []int {
	if len(a.srcReady) != r.Machine.P {
		panic(fmt.Sprintf("core: distSpMM srcReady has %d entries for %d devices", len(a.srcReady), r.Machine.P))
	}
	if r.strategy.reduceStaged() {
		return r.stagedSpMMCol(tg, cg, a)
	}
	return r.stagedSpMMRow(tg, cg, a)
}

// stagedSpMMRow records and binds the broadcast-staged SpMM at the
// strategy's replication factor c. The machine splits into c replica groups
// of P/c devices; every block is owned by one device per group, and group g
// runs stages j = g, g+c, ...: stage j broadcasts block j within the group
// and every member multiplies its (i, j) tile into its local accumulator. With c = 1 that is the paper's 1D-row (§4.1): one
// group, every stage, each output complete after its device's last stage.
// With c = 2 it is CAGNET's 1.5D (§5.1): each group runs half the stages and
// a cross-group all-reduce of the partial outputs completes every block on
// all its replicas — broadcast volume halves, the inter-group reduction pays
// the DGX-1 topology's 2-link penalty, and the feature memory doubles.
//
// Dependency structure (§4.3): a stage's broadcast waits on the producer of
// its source block and — for buffer safety — on every member's SpMM of the
// group's previous stage when overlap is off (single BC buffer), or of the
// one before when on (double buffering: "the i+1-th broadcast waits for the
// i-1-th SpMM to finish not to overwrite its input"). A stage's SpMM on a
// non-root device waits on the broadcast; the root's own SpMM needs no
// communication. Devices share one host heap: a non-root SpMM reads the
// root's block in place, its broadcast into the shape-only BC slab only prices
// the move, and the root's next kernel waits for the stage's readers host-side
// (Graph.FenceNext): after a group's last stage no broadcast orders them.
func (r layerRecorder) stagedSpMMRow(tg *sim.Graph, cg *comm.Group, a spmmArgs) []int {
	p, blocks := r.Machine.P, r.blocks
	c := p / blocks
	spec := r.Machine.Spec
	bcastLabel, valued := a.bcastLabel, a.valued
	if bcastLabel == "" {
		bcastLabel = a.label + "/bcast"
	}
	last := make([]int, p) // last[d] is the final group-local task on device d
	for g := 0; g < c; g++ {
		devs := make([]int, blocks)
		for i := range devs {
			devs[i] = g*blocks + i
		}
		if g >= blocks {
			// blocks < c leaves this group without a stage, so its devices
			// contribute a zeroed partial. The fill is a zero-cost compute
			// task so the executor orders it before the cross-group
			// all-reduce that reads it.
			for _, d := range devs {
				last[d] = tg.AddCompute(d, sim.KindSpMM, a.label+"/zerofill", -1, 0, false)
				dst := a.dst(d)
				tg.BindShaped(last[d], nil, sim.ShapesOf(dst), func() { dst.Zero() })
			}
			continue
		}
		sub := cg.Sub(devs)
		var prevStage, prevPrevStage []int
		// localStage counts the group's stages: it picks the staging slab's
		// parity and, past the first, makes the SpMM accumulate.
		for j, localStage := g, 0; j < blocks; j, localStage = j+c, localStage+1 {
			rootDev := g*blocks + j
			rootRows, xin := r.devs[rootDev].rows, a.src(rootDev)
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
					bcDst[pos] = r.devs[d].bufs.BC(localStage, a.overlap).View(rootRows, a.width)
				}
				bcastID = sub.Broadcast(j, xin, bcDst, bcastLabel, j, deps...)
			}
			stage := make([]int, 0, blocks)
			for _, d := range devs {
				dev := r.devs[d]
				var staged *tensor.Dense // the shape-only BC view; nil on the root
				var deps []int
				if d == rootDev {
					if a.srcReady[rootDev] >= 0 {
						deps = append(deps, a.srcReady[rootDev])
					}
				} else {
					staged = dev.bufs.BC(localStage, a.overlap).View(rootRows, a.width)
					deps = append(deps, bcastID)
				}
				if a.devDeps != nil {
					deps = append(deps, a.devDeps[d])
				}
				tile := r.tiles(d, a)[j]
				var beta float32
				if localStage > 0 {
					beta = 1
				}
				cost := spec.SpMMCost(tile.NNZ()*int64(r.Machine.MemScale), r.s(dev.rows), r.s(rootRows), a.width)
				id := tg.AddCompute(d, sim.KindSpMM, a.label, j, cost, true, deps...)
				dst := a.dst(d)
				// dst is Writes even at beta=0: Writes means read-and-write,
				// and the accumulating stages (beta=1) do read it.
				tg.BindShaped(id, append(sim.ShapesOf(staged, xin), opaqueAt(a.opaqueReads, d)), sim.ShapesOf(dst), func() {
					t := tile
					if valued != nil {
						t = valued(d, j)
					}
					sparse.ParallelSpMM(t, xin, beta, dst, 0)
				})
				stage = append(stage, id)
				last[d] = id
			}
			prevPrevStage = prevStage
			prevStage = stage
			tg.FenceNext(rootDev, stage...)
		}
	}
	if c == 1 {
		return last
	}

	// Cross-group all-reduce: block b's c replicas (devices b, blocks+b, ...)
	// sum their partial outputs; all end up with the complete block.
	for b := 0; b < blocks; b++ {
		reps := make([]int, c)
		dsts := make([]*tensor.Dense, c)
		deps := make([]int, c)
		for g := range reps {
			d := g*blocks + b
			reps[g], dsts[g], deps[g] = d, a.dst(d), last[d]
		}
		id := cg.Sub(reps).AllReduceSumScaled(dsts, a.label+"/xgroup", deps...)
		for _, d := range reps {
			last[d] = id
		}
	}
	return last
}

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
func (r layerRecorder) stagedSpMMCol(tg *sim.Graph, cg *comm.Group, a spmmArgs) []int {
	p := r.Machine.P
	spec := r.Machine.Spec
	last := make([]int, p)
	var prevReduce, prevPrevReduce int = -1, -1
	for i := 0; i < p; i++ { // stage i fills output block i
		outRows := r.devs[i].rows
		partials := make([]*tensor.Dense, p)
		stageIDs := make([]int, 0, p)
		for j := 0; j < p; j++ {
			dev := r.devs[j]
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
			tile := r.tiles(j, a)[i]
			cost := spec.SpMMCost(tile.NNZ()*int64(r.Machine.MemScale), r.s(outRows), r.s(dev.rows), a.width)
			id := tg.AddCompute(j, sim.KindSpMM, a.label, i, cost, true, deps...)
			src := a.src(j)
			tg.BindShaped(id, sim.ShapesOf(src), sim.ShapesOf(out),
				func() { sparse.ParallelSpMM(tile, src, 0, out, 0) })
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
