// Package groupconsist_ok is a mggcn-vet fixture: record-time collectives
// and record-time group topology, which is how the trainer really issues
// them — nothing to flag.
package groupconsist_ok

import (
	"mggcn/internal/comm"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// Collectives issued at record time, their task ids threaded as deps.
func recordTime(g *sim.Graph, cg *comm.Group, src *tensor.Dense, dst []*tensor.Dense, workers int) {
	bid := cg.Broadcast(0, src, dst, "bcast", 0)
	id := g.AddCompute(0, sim.KindGeMM, "consume", -1, 0, false, bid)
	g.BindShaped(id, sim.ShapesOf(src), nil, func() {
		_ = src.Rows
	})
	cg.AllReduceSum(dst, "ar", id) // vet:ok taskdep: terminal task, stream FIFO orders it
	g.Execute(workers)
}

// Sub is record-time topology, not a collective; using it near closures is
// fine, as is capturing the group for non-collective queries.
func subTopology(g *sim.Graph, cg *comm.Group, bufs []*tensor.Dense, workers int) {
	pair := cg.Sub([]int{0, 1})
	pair.ReduceSum(0, bufs[:2], "pair-red") // vet:ok taskdep: terminal task, stream FIFO orders it
	id := g.AddCompute(0, sim.KindActivation, "relu", -1, 0, true)
	g.BindShaped(id, nil, nil, func() {
		_ = pair.P()
	})
	g.Execute(workers)
}
