// Package shapedecl_ok is a mggcn-vet fixture: Dense-touching closures
// registered with dims via BindShaped/BindShapedE, and dimension-free
// BindRW uses that have nothing to type — nothing to flag.
package shapedecl_ok

import (
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// The shaped forms register extents the typing pass can check.
func shaped(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
	g.BindShaped(id, sim.ShapesOf(src), sim.ShapesOf(dst), func() {
		dst.CopyFrom(src)
	})
	g.Execute(workers)
}

func shapedE(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
	g.BindShapedE(id, sim.ShapesOf(src), sim.ShapesOf(dst), func() error {
		tensor.AddInPlace(dst, src)
		return nil
	})
	g.Execute(workers)
}

// A BindRW whose closure touches no Dense has no dims to declare; the
// unshaped form remains the right tool for bookkeeping tasks.
func noBuffers(g *sim.Graph, ids []sim.BufID, workers int) {
	done := false
	id := g.AddCompute(0, sim.KindLoss, "mark", -1, 0, true)
	g.BindRW(id, ids, nil, func() {
		done = true
	})
	g.Execute(workers)
	_ = done
}
