// Package bufalias_ok is a mggcn-vet fixture: kernel calls using the §4.2
// shared buffers the way the paper intends — distinct buffers per operand,
// or documented in-place elementwise use.
package bufalias_ok

import (
	"mggcn/internal/core"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

func clean(db *core.DeviceBuffers, w *tensor.Dense, a *sparse.CSR, workers int) {
	// Distinct buffers for input and output.
	tensor.ParallelGemm(1, db.HW.View(8, 4), w, 0, db.AHW[0].View(8, 4), workers)
	sparse.ParallelSpMM(a, db.BC1.View(8, 4), 0, db.HW.View(8, 4), workers)

	// In-place elementwise on one variable is the documented contract.
	act := db.AHW[0].View(8, 4)
	tensor.ReLU(act, act)
	tensor.AddInPlace(act, db.HW.View(8, 4))

	// Double-buffered broadcast views: BC1 and BC2 are different slabs.
	tensor.Gemm(1, db.BC1.View(8, 4), w, 0, db.BC2.View(8, 4))
}
