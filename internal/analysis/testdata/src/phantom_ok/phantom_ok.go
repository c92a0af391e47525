// Package phantom_ok is a mggcn-vet fixture: every data-touching kernel
// call is dominated by a phantom check in one of the accepted shapes.
package phantom_ok

import (
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// Enclosing-if guard on IsPhantom.
func branchGuard(dst, src *tensor.Dense) {
	if !dst.IsPhantom() && !src.IsPhantom() {
		dst.CopyFrom(src)
		tensor.AddInPlace(dst, src)
	}
}

type runner struct{ phantom bool }

// Early-exit guard on a phantom flag, the trainer idiom.
func (r *runner) earlyExit(dst, src *tensor.Dense, a *sparse.CSR, workers int) {
	if r.phantom {
		return
	}
	tensor.ParallelGemm(1, src, src, 0, dst, workers)
	sparse.ParallelSpMM(a, src, 0, dst, workers)
}

// The else branch of a phantom-conditioned if is a decision too.
func (r *runner) elseBranch(dst, src *tensor.Dense) {
	if r.phantom {
		_ = dst.Rows
	} else {
		tensor.ReLU(dst, src)
	}
}

// A guard at the Bind registration site dominates a task closure's body:
// the closure only exists — and can only run — when the guard passed
// (the record/execute split of sim/exec.go).
func bindGuard(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
	if !src.IsPhantom() {
		// vet:ok accessdecl: fixture exercises phantomguard's Bind-site guard
		g.Bind(id, func() {
			dst.CopyFrom(src)
			tensor.ParallelGemm(1, src, src, 0, dst, workers)
		})
	}
	g.Execute(workers)
}

// An early-exit guard before the Bind call dominates the closure too.
func (r *runner) bindEarlyExit(g *sim.Graph, dst, src *tensor.Dense) {
	id := g.AddCompute(0, sim.KindActivation, "relu", -1, 0, true)
	if r.phantom {
		return
	}
	g.Bind(id, func() { tensor.ReLU(dst, src) }) // vet:ok accessdecl: phantomguard fixture
}

// The error-returning registration points are Bind-family too: a guard at
// the BindE/BindShapedE site dominates the closure body.
func (r *runner) bindEGuard(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
	if r.phantom {
		return
	}
	g.BindShapedE(id, sim.ShapesOf(src), sim.ShapesOf(dst), func() error {
		dst.CopyFrom(src)
		tensor.AddInPlace(dst, src)
		return nil
	})
	g.Execute(workers)
}
