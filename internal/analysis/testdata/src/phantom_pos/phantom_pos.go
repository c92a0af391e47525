// Package phantom_pos is a mggcn-vet fixture: a phantom-aware package
// (IsPhantom appears below, so the rule binds) whose data-touching kernel
// calls are not dominated by a phantom check.
package phantom_pos

import (
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

func unguarded(dst, src *tensor.Dense, a *sparse.CSR, workers int) {
	// A check that doesn't dominate the call doesn't count.
	if src.IsPhantom() {
		_ = src.Rows
	}
	dst.CopyFrom(src)                                   // want phantomguard
	tensor.AddInPlace(dst, src)                         // want phantomguard
	tensor.ParallelGemm(1, src, src, 0, dst, workers)   // want phantomguard
	tensor.ParallelGemmTA(1, src, src, 0, dst, workers) // want phantomguard
	sparse.ParallelSpMM(a, src, 0, dst, workers)        // want phantomguard
}

type runner struct{ phantom bool }

func (r *runner) nonDominatingGuard(dst, src *tensor.Dense) {
	// The guard doesn't exit, so control still reaches the call in
	// phantom mode.
	if r.phantom {
		_ = dst.Rows
	}
	tensor.ReLU(dst, src) // want phantomguard
}

// A Bind closure with no phantom check at the registration site (and none
// inside) is still unguarded.
func unguardedBind(g *sim.Graph, dst, src *tensor.Dense, workers int) {
	id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 0, false)
	// vet:ok accessdecl: fixture exercises phantomguard, not the access contract
	g.Bind(id, func() {
		dst.CopyFrom(src) // want phantomguard
	})
	g.Execute(workers)
}

// Guards do not see through ordinary closures — only Bind registration
// inherits the enclosing check, because only Bind ties the closure's
// existence to the registration site running.
func guardedOutsidePlainClosure(dst, src *tensor.Dense) func() {
	if src.IsPhantom() {
		return func() {}
	}
	return func() {
		dst.CopyFrom(src) // want phantomguard
	}
}
