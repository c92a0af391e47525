// Package groupconsist_pos is a mggcn-vet fixture: comm.Group collectives
// issued from inside execution closures, where the recorded graph cannot
// see them — no annotation, no ordering edge, no meter count.
package groupconsist_pos

import (
	"mggcn/internal/comm"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// A broadcast issued at replay time instead of record time.
func broadcastInClosure(g *sim.Graph, cg *comm.Group, src *tensor.Dense, dst []*tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "stage", -1, 0, false)
	g.BindShaped(id, nil, nil, func() { // vet:ok accessdecl: fixture isolates the groupconsist rule
		cg.Broadcast(0, src, dst, "late-bcast", 0) // want groupconsist — vet:ok taskdep: fixture isolates the groupconsist rule
	})
	g.Execute(workers)
}

// The shaped and error-returning registrations replay the same way; hiding
// an all-reduce or a rooted reduce in them is just as invisible.
func reduceInShapedClosure(g *sim.Graph, cg *comm.Group, bufs []*tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindAdam, "step", -1, 0, false)
	g.BindShapedE(id, nil, sim.ShapesOf(bufs...), func() error {
		cg.AllReduceSum(bufs, "late-ar")  // want groupconsist — vet:ok taskdep: fixture isolates the groupconsist rule
		cg.ReduceSum(0, bufs, "late-red") // want groupconsist — vet:ok taskdep: fixture isolates the groupconsist rule
		return nil
	})
	g.Execute(workers)
}
