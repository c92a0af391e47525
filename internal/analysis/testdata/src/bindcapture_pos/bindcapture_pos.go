// Package bindcapture_pos is a mggcn-vet fixture: BindShaped closures
// capture variables that are declared outside the binding loop but rebound
// inside it, so every closure replays with the final value.
package bindcapture_pos

import (
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// The classic staging-buffer rebinding: one shared variable, reassigned per
// iteration, captured by every bound closure.
func rebindStaging(g *sim.Graph, views []*tensor.Dense, workers int) {
	var staging *tensor.Dense
	for i := 0; i < len(views); i++ {
		staging = views[i]
		id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
		g.BindShaped(id, sim.ShapesOf(staging), nil, func() { // want bindcapture
			_ = staging.Rows
		})
	}
	g.Execute(workers)
}

// Non-buffer state rebinding is just as wrong: the offset every closure
// sees at replay is the last iteration's.
func rebindScalar(g *sim.Graph, n, workers int) {
	var off int
	for i := 0; i < n; i++ {
		off = i * 4
		id := g.AddCompute(0, sim.KindActivation, "shift", -1, 0, true)
		g.BindShaped(id, nil, nil, func() { // want bindcapture
			_ = off
		})
	}
	g.Execute(workers)
}

// The error-returning registration shares the same replay semantics, so the
// same rebinding is just as wrong under BindShapedE.
func rebindStagingE(g *sim.Graph, views []*tensor.Dense, workers int) {
	var staging *tensor.Dense
	for i := 0; i < len(views); i++ {
		staging = views[i]
		id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
		g.BindShapedE(id, sim.ShapesOf(staging), nil, func() error { // want bindcapture
			_ = staging.Rows
			return nil
		})
	}
	g.Execute(workers)
}

// A variable declared in the outer loop body is per-outer-iteration, but
// rebinding it inside the inner loop still shares it across the inner
// closures.
func rebindInner(g *sim.Graph, views []*tensor.Dense, workers int) {
	for j := 0; j < 2; j++ {
		var cur *tensor.Dense
		for i := 0; i < len(views); i++ {
			cur = views[i]
			id := g.AddCompute(0, sim.KindSpMM, "agg", -1, 0, true)
			g.BindShaped(id, sim.ShapesOf(cur), nil, func() { // want bindcapture
				_ = cur.Cols
			})
		}
	}
	g.Execute(workers)
}
