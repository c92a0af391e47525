package memcheck

import (
	"fmt"
	"slices"
)

// kBroadcast returns how many distinct broadcast staging slabs the device
// ever touches under the broadcast-staged schedule at replication factor c
// (stagedSpMMRow; 1D-col's reduce-staged partials use the same slabs by the
// same stage parity): the device takes part only in the stages of its
// replica group (j = group, group+c, ... < P/c), the slab for the group's
// k-th stage is BC1 or BC2 by the parity of k when comm/compute overlap
// double-buffers them, always BC1 otherwise, and the stage whose root block
// is the device's own is skipped (the root reads its source directly, and
// comm.Group.Broadcast leaves the root's dst out of the declared write set).
// At c = 1 the group is the machine and k = j. Every touched slab is provably
// live across the loss task once L >= 2, so "touched" equals "simultaneously
// live at the peak".
func kBroadcast(p, c, dev int, overlap bool) int {
	blocks := p / c
	group, block := dev/blocks, dev%blocks
	seen := map[int]bool{}
	local := 0
	for j := group; j < blocks; j += c {
		if j != block {
			if overlap {
				seen[local%2] = true
			} else {
				seen[0] = true
			}
		}
		local++
	}
	return len(seen)
}

// maxDim returns the widest layer width: the shared HW and staging slabs are
// allocated at it, the staging slabs for the largest partition part
// (Model.TileRows).
func maxDim(m Model) int64 { return int64(slices.Max(m.Dims)) }

// params returns the weight-parameter count Σ F(l)·F(l+1).
func params(dims []int) int64 {
	var sum int64
	for l := 0; l+1 < len(dims); l++ {
		sum += int64(dims[l]) * int64(dims[l+1])
	}
	return sum
}

// activations returns the element count of the device's per-layer AHW
// slabs, each allocated at the wider of its layer's two widths (forward
// holds F(l+1) columns, the backward hgrad re-views it at F(l)).
func activations(m Model) int64 {
	var sum int64
	for l := 0; l+1 < len(m.Dims); l++ {
		sum += m.Rows * int64(max(m.Dims[l], m.Dims[l+1]))
	}
	return sum
}

// fullBatchFootprint certifies the GCN trainer's §4.2 slab set: the shared
// HW slab, k broadcast staging slabs, and one AHW activation slab per
// layer. All of them are provably live at the loss task in every legal
// replay order — each slab's first access is in the forward pass and its
// last in the backward pass — so the peak is exactly their capacity sum and
// the count is L+1+k, the paper's L+3 bound when k = 2 (overlapped
// broadcasts touching both parities).
func fullBatchFootprint(m Model, kind string, c int) (*Footprint, error) {
	layers := len(m.Dims) - 1
	if layers < 1 {
		return nil, fmt.Errorf("memcheck: %s needs at least 1 layer, got dims %v", kind, m.Dims)
	}
	if err := checkDevice(m, kind); err != nil {
		return nil, err
	}
	if m.P%c != 0 {
		return nil, fmt.Errorf("memcheck: %s needs P divisible by %d, got %d", kind, c, m.P)
	}
	k := kBroadcast(m.P, c, m.Device, m.Overlap)
	hw, stage, acts := m.Rows*maxDim(m), m.TileRows*maxDim(m), activations(m)

	alloc := hw + 2*stage + acts
	fp := &Footprint{
		SlabBytes: 4 * (hw + int64(k)*stage + acts),
		SlabCount: layers + 1 + k,
		Resident:  m.AdjBytes + 4*m.Rows*int64(m.Dims[0]) + 16*params(m.Dims) + 4*alloc,
	}
	if m.P > 1 && layers < 2 {
		// With one layer (and the layer-0 backward SpMM skipped, §4.4) the
		// broadcast slabs' last access is inside the forward pass, so
		// whether both parities are charged at once depends on the replay
		// order — there is no order-independent slab peak to certify.
		fp.SlabBytes, fp.SlabCount = 0, 0
		fp.Uncertified = fmt.Sprintf("%s at P=%d needs L >= 2: broadcast slabs release mid-forward at L=1, so the slab peak is order-dependent", kind, m.P)
	}
	return fp, nil
}

// gatFootprint certifies the GAT forward pass. Unlike the GCN trainer there
// is no backward pass to pin every activation slab across a loss task: the
// AHW slabs are provably exclusive (AHW[l]'s last reader, the layer-l+1
// GeMM, precedes AHW[l+1]'s first writer on the same device FIFO), so the
// peak holds HW, the k touched broadcast slabs, and the single widest AHW.
// Certification requires the widest AHW to be layer 0's (max(F0,F1) equals
// the global max width) and L >= 2, which makes the instant "layer-0 SpMM
// at the later of the two slab parities' first stages" carry the full set
// in every order: both staging slabs are then re-read by layer 1, so
// neither can release mid-layer-0.
func gatFootprint(m Model) (*Footprint, error) {
	layers := len(m.Dims) - 1
	if layers < 1 {
		return nil, fmt.Errorf("memcheck: gat needs at least 1 layer, got dims %v", m.Dims)
	}
	if err := checkDevice(m, "gat"); err != nil {
		return nil, err
	}
	uncertified := ""
	if layers < 2 {
		uncertified = "gat needs L >= 2: single-layer broadcast slabs release mid-forward, so the slab peak is order-dependent"
	} else if int64(max(m.Dims[0], m.Dims[1])) != maxDim(m) {
		uncertified = fmt.Sprintf("gat slab form needs max(F0,F1) == max width (argmax activation slab at layer 0), got dims %v", m.Dims)
	}
	k := kBroadcast(m.P, 1, m.Device, m.Overlap)
	hw, stage := m.Rows*maxDim(m), m.TileRows*maxDim(m)

	// gat-model holds weights plus the two attention vectors per layer at
	// 4 bytes each (no optimizer moments: forward only); gat-attn charges
	// half the adjacency bytes for the per-edge score storage, rounded
	// down as the pool charge is.
	gatParams := params(m.Dims)
	for _, d := range m.Dims[1:] {
		gatParams += 2 * int64(d)
	}
	alloc := hw + 2*stage + activations(m)
	fp := &Footprint{
		SlabBytes: 4 * (2*hw + int64(k)*stage),
		SlabCount: 2 + k,
		Resident:  m.AdjBytes + m.AdjBytes/2 + 4*m.Rows*int64(m.Dims[0]) + 4*gatParams + 4*alloc,
	}
	if uncertified != "" {
		fp.SlabBytes, fp.SlabCount, fp.Uncertified = 0, 0, uncertified
	}
	return fp, nil
}

// sampledFootprint certifies the sampled minibatch pipeline's slab set: the
// degree-ordered feature cache, the gathered-feature slab X, one aggregate
// slab AH per layer, the gradient slab G and one OUT slab per layer — 2L+3
// slabs. All of them are live at the instant "step s, layer-0 weight
// gradient" for any s with s + Depth < Steps: step s has charged every slab
// by then, and each has a later access gated on step s's Adam — the next
// step's training tasks through the compute stream's FIFO, and step
// s+Depth's extract (cache and X) through its sample task's slot-recycle
// edge. The peak is therefore the full capacity sum, forced in every order;
// with fewer steps the cache and X can release before the gradient slab is
// charged, which is order luck, not a certificate. Depth only sets that
// step threshold: the handoff slots double-buffer the sampled blocks, not X.
func sampledFootprint(m Model) (*Footprint, error) {
	layers := len(m.Dims) - 1
	if layers < 1 {
		return nil, fmt.Errorf("memcheck: sampled needs at least 1 layer, got dims %v", m.Dims)
	}
	if len(m.Caps) != layers+1 {
		return nil, fmt.Errorf("memcheck: sampled needs len(Caps) == L+1, got %d caps for %d layers", len(m.Caps), layers)
	}
	if m.Depth != 1 && m.Depth != 2 {
		return nil, fmt.Errorf("memcheck: sampled Depth must be 1 or 2, got %d", m.Depth)
	}
	uncertified := ""
	if minSteps := m.Depth + 1; m.Steps < minSteps {
		uncertified = fmt.Sprintf("sampled at depth %d needs >= %d steps per device for an order-independent slab peak, got %d", m.Depth, minSteps, m.Steps)
	}

	// G is sized for the widest propagated gradient: frontier l+1 rows at
	// F(l+1) columns.
	var grad, perLayer int64
	for l := 0; l < layers; l++ {
		hop := int64(m.Caps[l+1])
		grad = max(grad, hop*int64(m.Dims[l+1]))
		perLayer += hop * int64(m.Dims[l]+m.Dims[l+1]) // AH[l] and OUT[l]
	}
	cacheAndX := (m.CacheRows + int64(m.Caps[0])) * int64(m.Dims[0])
	slab := 4 * (cacheAndX + grad + perLayer)

	fp := &Footprint{
		SlabBytes: slab,
		SlabCount: 2*layers + 3,
		Resident:  16*params(m.Dims) + slab,
	}
	if uncertified != "" {
		fp.SlabBytes, fp.SlabCount, fp.Uncertified = 0, 0, uncertified
	}
	return fp, nil
}

func checkDevice(m Model, kind string) error {
	if m.P < 1 {
		return fmt.Errorf("memcheck: %s needs P >= 1, got %d", kind, m.P)
	}
	if m.Device < 0 || m.Device >= m.P {
		return fmt.Errorf("memcheck: %s device %d out of range for P=%d", kind, m.Device, m.P)
	}
	return nil
}
