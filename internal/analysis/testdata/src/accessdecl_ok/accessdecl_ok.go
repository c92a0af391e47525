// Package accessdecl_ok is a mggcn-vet fixture: every buffer view a closure
// captures appears in its reads/writes declaration, and view-free closures
// owe the graph nothing.
package accessdecl_ok

import (
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// Both captured views appear in the access sets.
func declared(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
	g.BindShaped(id, sim.ShapesOf(src), sim.ShapesOf(dst), func() {
		dst.CopyFrom(src)
	})
	g.Execute(workers)
}

// A slice capture is covered by a variadic declaration.
func declaredSlice(g *sim.Graph, out *tensor.Dense, parts []*tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindSpMM, "gather", -1, 0, true)
	g.BindShaped(id, sim.ShapesOf(parts...), sim.ShapesOf(out), func() {
		for _, p := range parts {
			_ = p.Rows
		}
		_ = out.Rows
	})
	g.Execute(workers)
}

// Declarations may flow through helper expressions; the variable just has to
// appear somewhere in the reads/writes arguments.
func declaredViaHelper(g *sim.Graph, dst, src *tensor.Dense, extra []sim.ViewShape, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "gemm", -1, 0, false)
	g.BindShaped(id, append(sim.ShapesOf(src), extra...), sim.ShapesOf(dst), func() {
		dst.CopyFrom(src)
	})
	g.Execute(workers)
}

// The error-returning registration declares its captures the same way.
func declaredE(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
	g.BindShapedE(id, sim.ShapesOf(src), sim.ShapesOf(dst), func() error {
		dst.CopyFrom(src)
		return nil
	})
	g.Execute(workers)
}

// A view-free closure owes the graph nothing: its sets may be nil.
func viewFreeE(g *sim.Graph, workers int) {
	fired := false
	id := g.AddCompute(0, sim.KindActivation, "tick", -1, 0, true)
	g.BindShapedE(id, nil, nil, func() error { fired = true; return nil })
	g.Execute(workers)
	_ = fired
}

// The same holds in a loop of infallible binds.
func viewFree(g *sim.Graph, n, workers int) {
	count := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		id := g.AddCompute(0, sim.KindActivation, "tick", -1, 0, true)
		g.BindShaped(id, nil, nil, func() { count[i]++ })
	}
	g.Execute(workers)
}
