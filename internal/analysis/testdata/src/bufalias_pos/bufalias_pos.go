// Package bufalias_pos is a mggcn-vet fixture: kernel calls whose operands
// alias one §4.2 shared buffer.
package bufalias_pos

import (
	"mggcn/internal/core"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

func aliased(db *core.DeviceBuffers, w *tensor.Dense, a *sparse.CSR, workers int) {
	// Same buffer viewed as both GeMM input and output.
	tensor.ParallelGemm(1, db.HW.View(8, 4), w, 0, db.HW.View(8, 4), workers) // want bufalias

	// Different shapes don't help: the views still share the slab prefix.
	tensor.Gemm(1, db.BC1.View(8, 4), w, 0, db.BC1.View(4, 8)) // want bufalias

	// SpMM reading and writing the same buffer.
	sparse.ParallelSpMM(a, db.BC2.View(8, 4), 0, db.BC2.View(8, 4), workers) // want bufalias

	// The same Dense variable as input and output of a strict kernel.
	v := db.HW.View(8, 4)
	tensor.GemmTB(1, v, w, 0, v) // want bufalias

	// The packed-transpose weight-gradient kernel is just as strict.
	tensor.ParallelGemmTA(1, v, w, 0, v, workers) // want bufalias

	// Elementwise ops may run in place on one variable, but not on two
	// separately materialized views of one buffer.
	tensor.AddInPlace(db.HW.View(8, 4), db.HW.View(8, 4)) // want bufalias
}
