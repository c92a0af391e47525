// Package accessdecl_pos is a mggcn-vet fixture: task closures touch buffer
// views their access declarations leave out — invisible to the
// happens-before checker and the shadow replay.
package accessdecl_pos

import (
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// A BindShaped that declares the input but forgets the output: the declaration
// exists but is blind to dst.
func missingWrite(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "gemm", -1, 0, false)
	g.BindShaped(id, sim.ShapesOf(src), nil, func() { // want accessdecl
		dst.CopyFrom(src)
	})
	g.Execute(workers)
}

// A BindShapedE blind to one of its captures is the same drift as BindShaped.
func missingWriteE(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "gemm", -1, 0, false)
	g.BindShapedE(id, sim.ShapesOf(src), nil, func() error { // want accessdecl
		dst.CopyFrom(src)
		return nil
	})
	g.Execute(workers)
}

// Slices of views are buffer captures too.
func missingSlice(g *sim.Graph, out *tensor.Dense, parts []*tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindSpMM, "gather", -1, 0, true)
	g.BindShaped(id, nil, sim.ShapesOf(out), func() { // want accessdecl
		for _, p := range parts {
			_ = p.Rows
		}
	})
	g.Execute(workers)
}
