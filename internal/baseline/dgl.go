// Package baseline implements the three systems the paper compares MG-GCN
// against, at the fidelity the comparison needs:
//
//   - DGL (single-GPU): aggregate-then-transform kernel order, full 2L-SpMM
//     backward pass, per-layer buffer allocation (no §4.2 reuse), and
//     framework per-op overhead. Used by Figs 10-14 (runtime) and Fig 12
//     (memory vs layers).
//   - CAGNET (multi-GPU, 1D and 1.5D): MG-GCN's own full-batch trainer with
//     the paper's optimisations switched off, on a machine derated to
//     PyTorch-era kernels and an older NCCL (CAGNET). Used by Figs 10-11
//     and the §5.1 analysis; its memory (no buffer reuse, Fig 12) is
//     memcheck's analytic form.
//   - DistGNN (CPU cluster): an analytic Xeon-9242 + HDR-interconnect cost
//     model regenerating Table 2.
//
// These models share the machine specs and cost model of internal/sim so
// every framework is priced by the same hardware.
package baseline

import (
	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
)

// DGLConfig models the DGL v0.7 single-GPU trainer.
type DGLConfig struct {
	Spec     sim.MachineSpec
	MemScale int // dataset scale divisor (costs are priced at full scale)
	Hidden   int
	Layers   int
	// OpOverhead is the per-kernel framework overhead (Python dispatch,
	// allocator traffic) added on top of the raw kernel cost.
	OpOverhead float64
	// KernelEfficiency is DGL's sustained kernel throughput relative to
	// the hand-tuned pipeline (unfused message passing, allocator copies).
	KernelEfficiency float64
}

// NewDGL returns the default DGL model on the given machine.
func NewDGL(spec sim.MachineSpec, memScale, hidden, layers int) DGLConfig {
	return DGLConfig{
		Spec: spec, MemScale: memScale, Hidden: hidden, Layers: layers,
		OpOverhead: 80e-6, KernelEfficiency: 0.55,
	}
}

// EpochSeconds prices one full-batch epoch of DGL on the dataset. DGL's
// GraphConv performs the same width-aware order switch as §4.4, and
// PyTorch autograd skips the layer-0 input-gradient SpMM when the features
// do not require gradients — so DGL runs the same kernel *set* as MG-GCN.
// Its deficit is sustained kernel efficiency (unfused message passing and
// allocator traffic) plus per-op framework dispatch, which is what the
// paper's 1.4-3.1x single-GPU gaps measure.
func (c DGLConfig) EpochSeconds(g *graph.Graph) float64 {
	spec := c.Spec
	S := int64(c.MemScale)
	n := int(int64(g.N()) * S)
	nnz := g.M() * S
	dims := nn.LayerDims(g.FeatDim, c.Hidden, c.Layers, g.Classes)
	var t float64
	op := func(raw float64) { t += raw/c.KernelEfficiency + c.OpOverhead }

	for l := 0; l < c.Layers; l++ {
		dIn, dOut := dims[l], dims[l+1]
		width := dOut
		if dIn < dOut {
			width = dIn // aggregate first in the narrower dimension
		}
		op(spec.SpMMCost(nnz, n, n, width))
		op(spec.GemmCost(n, dIn, dOut))
		// Unfused message passing materializes an extra intermediate.
		op(spec.ElementwiseCost(int64(n)*int64(dOut), 1))
		if l < c.Layers-1 {
			op(spec.ElementwiseCost(int64(n)*int64(dOut), 1))
		}
	}
	op(spec.LossCost(n, dims[c.Layers]))
	for l := c.Layers - 1; l >= 0; l-- {
		dIn, dOut := dims[l], dims[l+1]
		if l < c.Layers-1 {
			op(spec.ElementwiseCost(int64(n)*int64(dOut), 2))
		}
		op(spec.GemmCost(dIn, n, dOut)) // W_G
		if l > 0 {
			op(spec.GemmCost(n, dOut, dIn))    // H_G through W
			op(spec.SpMMCost(nnz, n, n, dOut)) // gradient aggregation
		}
	}
	var params int64
	for l := 0; l < c.Layers; l++ {
		params += int64(dims[l]) * int64(dims[l+1])
	}
	op(spec.AdamCost(params))
	return t
}

// MemoryBytes returns DGL's per-GPU memory for the dataset at full scale:
// adjacency + features + 3 persistent n x d buffers per layer (aggregated
// messages, pre-activation, activation — none reused across layers, all
// retained for the backward pass) + 2 transient gradient buffers + model
// state. This is the Fig 12 line: ~20 layers in 30 GiB on Reddit-512.
func (c DGLConfig) MemoryBytes(g *graph.Graph) int64 {
	S := int64(c.MemScale)
	n := int64(g.N()) * S
	nnz := g.M() * S
	dims := nn.LayerDims(g.FeatDim, c.Hidden, c.Layers, g.Classes)
	maxD := 0
	for _, d := range dims {
		if d > maxD {
			maxD = d
		}
	}
	adj := (n+1)*8 + nnz*8
	feats := n * int64(g.FeatDim) * 4
	var perLayer int64
	for l := 0; l < c.Layers; l++ {
		perLayer += 3 * n * int64(dims[l+1]) * 4
	}
	transient := 2 * n * int64(maxD) * 4
	var params int64
	for l := 0; l < c.Layers; l++ {
		params += int64(dims[l]) * int64(dims[l+1])
	}
	return adj + feats + perLayer + transient + params*4*4
}
