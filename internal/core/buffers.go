// Package core implements MG-GCN: 1D row-partitioned full-batch GCN
// training across simulated GPUs with the paper's three optimizations —
// shared memory buffers (§4.2, L+3 buffers total), communication/
// computation overlap via double-buffered broadcasts (§4.3), and the
// GeMM/SpMM order switch plus saved first-layer backward SpMM (§4.4).
package core

import (
	"fmt"
	"slices"

	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// Buffer is a device-resident slab of float32 storage that can be viewed as
// matrices of varying shapes — the mechanism behind §4.2's buffer reuse. A
// phantom Buffer carries capacity for memory accounting but no storage.
// Every buffer is registered (and, non-phantom, tracked) in the trainer's
// sim.BufRegistry so views can carry its identity into task access sets.
type Buffer struct {
	label    string
	capElems int64
	data     []float32 // nil in phantom mode
	id       sim.BufID
}

// newBuffer allocates a buffer of capElems float32s from pool, failing with
// the pool's OOM error when over capacity, and registers it with reg as one
// of dev's §4.2 slabs (the device-qualified name is for diagnostics).
func newBuffer(reg *sim.BufRegistry, dev int, pool *sim.Pool, label string, capElems int64, phantom bool) (*Buffer, error) {
	if err := pool.Alloc(label, capElems*4); err != nil {
		return nil, err
	}
	b := &Buffer{label: label, capElems: capElems}
	if !phantom {
		b.data = make([]float32, capElems)
	}
	b.id = reg.RegisterOn(fmt.Sprintf("d%d/%s", dev, label), dev, true)
	reg.Track(b.id, b.data)
	// Slab: views of any shape up to the capacity are legal (schedcheck
	// bounds-checks against this, not an exact extent).
	reg.SetCapacity(b.id, capElems)
	return b, nil
}

// View returns a rows x cols matrix over the buffer's prefix. Views of the
// same buffer alias each other — exactly the reuse the paper exploits — and
// carry the buffer's registry stamp for access declarations.
func (b *Buffer) View(rows, cols int) *tensor.Dense {
	need := int64(rows) * int64(cols)
	if need > b.capElems {
		panic(fmt.Sprintf("core: view %dx%d needs %d elems, buffer %q holds %d", rows, cols, need, b.label, b.capElems))
	}
	d := &tensor.Dense{Rows: rows, Cols: cols, Stride: cols, Buf: int(b.id)}
	if b.data != nil {
		d.Data = b.data[:need]
	}
	return d
}

// DeviceBuffers is one device's §4.2 set of L+3 large buffers: the shared HW
// (GeMM/SpMM intermediates) and BC1/BC2 (broadcast double-buffering, charged
// but shape-only under broadcast staging), plus one output buffer per layer.
type DeviceBuffers struct {
	HW  *Buffer   // shared: H·W / AH / HW_G intermediate, rows x maxDim
	BC1 *Buffer   // shared: broadcast receive buffer, maxTileRows x maxDim
	BC2 *Buffer   // shared: second broadcast buffer for overlap (§4.3)
	AHW []*Buffer // private per layer: layer output / AHW_G / H_G
}

// NewDeviceBuffers allocates the L+3 buffer set on pool for device dev
// owning rows vertices, where dims are the model's layer widths (len L+1)
// and maxTileRows is the largest row-block any broadcast can carry, staged
// as st stages its SpMMs. All buffers register with reg.
func NewDeviceBuffers(reg *sim.BufRegistry, dev int, pool *sim.Pool, rows, maxTileRows int, dims []int, st Strategy, phantom bool) (*DeviceBuffers, error) {
	maxDim := slices.Max(dims)
	b := &DeviceBuffers{}
	var err error
	if b.HW, err = newBuffer(reg, dev, pool, "buf/HW", int64(rows)*int64(maxDim), phantom); err != nil {
		return nil, err
	}
	bcShapeOnly := phantom || !st.reduceStaged()
	if b.BC1, err = newBuffer(reg, dev, pool, "buf/BC1", int64(maxTileRows)*int64(maxDim), bcShapeOnly); err != nil {
		return nil, err
	}
	if b.BC2, err = newBuffer(reg, dev, pool, "buf/BC2", int64(maxTileRows)*int64(maxDim), bcShapeOnly); err != nil {
		return nil, err
	}
	for l := 0; l+1 < len(dims); l++ {
		// Layer l's buffer holds its output (width dims[l+1]) in the
		// forward pass and H_G (width dims[l]) at the end of its backward
		// pass (eq. 21), so it is sized for the larger of the two.
		buf, err := newBuffer(reg, dev, pool, fmt.Sprintf("buf/AHW%d", l), int64(rows)*int64(max(dims[l], dims[l+1])), phantom)
		if err != nil {
			return nil, err
		}
		b.AHW = append(b.AHW, buf)
	}
	return b, nil
}

// Count returns the number of large buffers held (the paper's L+3).
func (b *DeviceBuffers) Count() int { return 3 + len(b.AHW) }

// registerDense stamps a standalone matrix — weights, gradients, feature
// shards — with its registration id (reg.Register, or reg.RegisterOn for a
// device-resident one) so access declarations can name it, and tracks its
// storage when materialized. Safe on phantoms (registered untracked).
func registerDense(reg *sim.BufRegistry, id sim.BufID, t *tensor.Dense) {
	if t.Data != nil {
		reg.Track(id, t.Data)
	}
	// Whole matrix: the exact extent seeds schedcheck's shape dataflow.
	reg.SetShape(id, t.Rows, t.Cols)
	t.Buf = int(id)
}

// BC returns the broadcast buffer for stage (BC1 for even stages, BC2 for
// odd) when overlap double-buffering is on; BC1 always when off.
func (b *DeviceBuffers) BC(stage int, overlap bool) *Buffer {
	if overlap && stage%2 == 1 {
		return b.BC2
	}
	return b.BC1
}
