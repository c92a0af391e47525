// Package shapedecl_pos is a mggcn-vet fixture: Dense-touching closures
// registered through the unshaped BindRW/BindRWE forms, which declare
// buffer identities but no dims — the schedule verifier's typing pass
// cannot check them.
package shapedecl_pos

import (
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// Identities declared, dims not: sanitizer-visible but schedcheck-blind.
func unshaped(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
	g.BindRW(id, sim.BufsOf(src), sim.BufsOf(dst), func() { // want shapedecl
		dst.CopyFrom(src)
	})
	g.Execute(workers)
}

// The error-returning form is just as blind.
func unshapedE(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
	g.BindRWE(id, sim.BufsOf(src), sim.BufsOf(dst), func() error { // want shapedecl
		dst.CopyFrom(src)
		return nil
	})
	g.Execute(workers)
}
