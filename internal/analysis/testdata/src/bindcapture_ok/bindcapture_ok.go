// Package bindcapture_ok is a mggcn-vet fixture: every capture pattern here
// is replay-safe and must not be flagged.
package bindcapture_ok

import (
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// Loop-header variables are per-iteration; capturing them is the normal,
// correct idiom.
func headerVar(g *sim.Graph, n, workers int) {
	for i := 0; i < n; i++ {
		id := g.AddCompute(0, sim.KindActivation, "step", -1, 0, true)
		g.BindShaped(id, nil, nil, func() { _ = i })
	}
	g.Execute(workers)
}

// A := definition in the loop body creates a fresh instance each iteration,
// even when it is later reassigned within the same iteration.
func bodyLocal(g *sim.Graph, views []*tensor.Dense, workers int) {
	for i := range views {
		xin := views[i]
		if i > 0 {
			xin = views[i-1]
		}
		id := g.AddCompute(0, sim.KindGeMM, "gemm", -1, 0, false)
		g.BindShaped(id, sim.ShapesOf(xin), nil, func() { _ = xin.Rows })
	}
	g.Execute(workers)
}

// An outer variable that is only read inside the loop is stable across
// iterations; capturing it is fine.
func stableOuter(g *sim.Graph, w *tensor.Dense, n, workers int) {
	scale := float32(2)
	for i := 0; i < n; i++ {
		id := g.AddCompute(0, sim.KindGeMM, "scale", -1, 0, false)
		g.BindShaped(id, sim.ShapesOf(w), nil, func() { _ = scale * float32(w.Rows) })
	}
	g.Execute(workers)
}

// Writing through an index expression mutates the element, not the slice
// binding: the captured variable itself is never rebound.
func elementWrite(g *sim.Graph, n, workers int) {
	acc := make([]float64, n)
	for i := 0; i < n; i++ {
		acc[i] = float64(i)
		i := i
		id := g.AddCompute(0, sim.KindActivation, "acc", -1, 0, true)
		g.BindShaped(id, nil, nil, func() { acc[i]++ })
	}
	g.Execute(workers)
}
