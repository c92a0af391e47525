package memcheck

import (
	"fmt"

	"mggcn/internal/schedcheck"
)

// Atoms the footprints are written over. R and A are per-device (the row
// count and adjacency-tile bytes of Model.Device); T is the global maximum
// tile row count (every broadcast slab is sized for the largest partition
// part); F0..FL are the layer widths; C and V0..VL are the sampled
// pipeline's cache row count and frontier capacities.
func atomR() *schedcheck.Expr { return schedcheck.Atom("R") }
func atomT() *schedcheck.Expr { return schedcheck.Atom("T") }
func atomA() *schedcheck.Expr { return schedcheck.Atom("A") }
func atomC() *schedcheck.Expr { return schedcheck.Atom("C") }

func atomF(l int) *schedcheck.Expr { return schedcheck.Atom(fmt.Sprintf("F%d", l)) }
func atomV(h int) *schedcheck.Expr { return schedcheck.Atom(fmt.Sprintf("V%d", h)) }

// maxDimIdx returns the index of the widest layer dimension (first winner
// on ties, matching the View the trainers take of the maxDim-sized slabs).
func maxDimIdx(dims []int) int {
	best := 0
	for i, d := range dims {
		if d > dims[best] {
			best = i
		}
	}
	return best
}

// wideIdx returns the index of the wider of dims[l] and dims[l+1] — the
// capacity AHW[l] is allocated at (forward holds F(l+1) columns, the
// backward hgrad re-views it at F(l)).
func wideIdx(dims []int, l int) int {
	if dims[l] > dims[l+1] {
		return l
	}
	return l + 1
}

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

// perLayer sums term(l) over the layers l = 0..layers-1.
func perLayer(layers int, term func(l int) *schedcheck.Expr) *schedcheck.Expr {
	terms := make([]*schedcheck.Expr, layers)
	for l := range terms {
		terms[l] = term(l)
	}
	return schedcheck.Sum(terms...)
}

// params returns the symbolic weight-parameter count sum F(l)*F(l+1).
func params(layers int) *schedcheck.Expr {
	return perLayer(layers, func(l int) *schedcheck.Expr { return atomF(l).Mul(atomF(l + 1)) })
}

// activations returns the symbolic element count of the per-layer AHW
// slabs, each allocated at the wider of its layer's two widths.
func activations(dims []int) *schedcheck.Expr {
	return perLayer(len(dims)-1, func(l int) *schedcheck.Expr { return atomR().Mul(atomF(wideIdx(dims, l))) })
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
	maxI := maxDimIdx(m.Dims)

	acts := activations(m.Dims)
	slab := schedcheck.Sum(atomR().Mul(atomF(maxI)), atomT().Mul(atomF(maxI)).Scale(int64(k), 1), acts)
	alloc := schedcheck.Sum(atomR().Mul(atomF(maxI)), atomT().Mul(atomF(maxI)).Scale(2, 1), acts)
	resident := schedcheck.Sum(atomA(), atomR().Mul(atomF(0)).Scale(4, 1), params(layers).Scale(16, 1), alloc.Scale(4, 1))

	fp := &Footprint{
		SlabBytes: slab.Scale(4, 1),
		SlabCount: layers + 1 + k,
		Resident:  resident,
	}
	if m.P > 1 && layers < 2 {
		// With one layer (and the layer-0 backward SpMM skipped, §4.4) the
		// broadcast slabs' last access is inside the forward pass, so
		// whether both parities are charged at once depends on the replay
		// order — there is no order-independent slab peak to certify.
		fp.SlabBytes, fp.SlabCount = nil, 0
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
	maxI := maxDimIdx(m.Dims)
	uncertified := ""
	if layers < 2 {
		uncertified = "gat needs L >= 2: single-layer broadcast slabs release mid-forward, so the slab peak is order-dependent"
	} else if wide := wideIdx(m.Dims, 0); m.Dims[wide] != m.Dims[maxI] {
		uncertified = fmt.Sprintf("gat slab form needs max(F0,F1) == max width (argmax activation slab at layer 0), got dims %v", m.Dims)
	}
	k := kBroadcast(m.P, 1, m.Device, m.Overlap)

	slab := atomR().Mul(atomF(maxI)).Scale(2, 1).Add(atomT().Mul(atomF(maxI)).Scale(int64(k), 1))

	// gat-model holds weights plus the two attention vectors per layer at
	// 4 bytes each (no optimizer moments: forward only); gat-attn charges
	// half the adjacency bytes for the per-edge score storage.
	gatParams := perLayer(layers, func(l int) *schedcheck.Expr {
		return atomF(l).Mul(atomF(l + 1)).Add(atomF(l+1).Scale(2, 1))
	})
	alloc := schedcheck.Sum(atomR().Mul(atomF(maxI)), atomT().Mul(atomF(maxI)).Scale(2, 1), activations(m.Dims))
	resident := schedcheck.Sum(atomA(), atomA().Scale(1, 2), atomR().Mul(atomF(0)).Scale(4, 1), gatParams.Scale(4, 1), alloc.Scale(4, 1))

	fp := &Footprint{
		SlabBytes: slab.Scale(4, 1),
		SlabCount: 2 + k,
		Resident:  resident,
	}
	if uncertified != "" {
		fp.SlabBytes, fp.SlabCount, fp.Uncertified = nil, 0, uncertified
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

	// G is sized for the widest propagated gradient (frontier l+1 rows at
	// F(l+1) columns). The argmax index is concrete; the expression stays
	// symbolic in the chosen V and F atoms.
	gIdx := 0
	for l := 1; l < layers; l++ {
		if int64(m.Caps[l+1])*int64(m.Dims[l+1]) > int64(m.Caps[gIdx+1])*int64(m.Dims[gIdx+1]) {
			gIdx = l
		}
	}

	slab := schedcheck.Sum(
		atomC().Mul(atomF(0)),            // cache
		atomV(0).Mul(atomF(0)),           // X
		atomV(gIdx+1).Mul(atomF(gIdx+1)), // G
		perLayer(layers, func(l int) *schedcheck.Expr { // AH[l] and OUT[l]
			return atomV(l + 1).Mul(atomF(l).Add(atomF(l + 1)))
		}),
	)

	resident := params(layers).Scale(16, 1).Add(slab.Scale(4, 1))

	fp := &Footprint{
		SlabBytes: slab.Scale(4, 1),
		SlabCount: 2*layers + 3,
		Resident:  resident,
	}
	if uncertified != "" {
		fp.SlabBytes, fp.SlabCount, fp.Uncertified = nil, 0, uncertified
	}
	return fp, nil
}

// cagnetFootprint covers the CAGNET baseline, whose epoch graph is a pure
// cost model (phantom buffers, no declared access sets), so there is no
// slab universe to certify: SlabBytes is nil and only the resident form —
// the local adjacency slice (Z nonzeros), feature shard, three persistent
// buffers per layer, two stage-receive buffers, and replicated model state
// — is emitted, cross-checked against baseline.CAGNETConfig.MemoryBytes.
func cagnetFootprint(m Model) (*Footprint, error) {
	layers := len(m.Dims) - 1
	if layers < 1 {
		return nil, fmt.Errorf("memcheck: cagnet needs at least 1 layer, got dims %v", m.Dims)
	}
	maxI := maxDimIdx(m.Dims)
	return &Footprint{
		Resident: schedcheck.Sum(
			atomR().Add(schedcheck.Const(1)).Scale(8, 1), // row pointers
			schedcheck.Atom("Z").Scale(8, 1),             // column indices and values
			atomR().Mul(atomF(0)).Scale(4, 1),            // feature shard
			perLayer(layers, func(l int) *schedcheck.Expr { // three buffers per layer
				return atomR().Mul(atomF(l+1)).Scale(12, 1)
			}),
			atomR().Mul(atomF(maxI)).Scale(8, 1), // two stage-receive buffers
			params(layers).Scale(16, 1),          // weights and Adam moments
		),
		Uncertified: "cagnet is a phantom cost model: its graph declares no buffer access sets, so there is no slab universe to certify",
	}, nil
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
