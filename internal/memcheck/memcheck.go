// Package memcheck is the static peak-device-memory certifier: the memory
// twin of internal/schedcheck's communication-cost certification (DESIGN.md
// §6.4). For every shipped strategy it provides two independent static
// derivations of the per-device memory high-water of one training epoch —
//
//  1. a closed-form footprint (PeakForm): an exact symbolic expression,
//     over the same big.Rat polynomial algebra schedcheck uses, for the
//     peak number of bytes of §4.2 shared slabs (buffers registered as such
//     with sim.BufRegistry.RegisterOn) that can ever be simultaneously
//     live, the matching slab count, and the total resident pool footprint
//     (adjacency tiles, feature shard, model state, every allocated slab);
//  2. a graph liveness analysis (PeakLiveSlabs): a happens-before interval
//     analysis over a recorded sim.Graph's declared task access sets that
//     computes, without replaying a single closure, the largest slab
//     byte-set any legal execution order can have live at once.
//
// Both must agree byte-exactly with each other and with the byte-accurate
// replay-time allocation meter (sim.AllocMeter) — the three-way cross-check
// `mggcn-verify memcheck` and the golden tests enforce. The closed forms are
// additionally evaluated under analytic full-scale environments to issue
// fit / no-fit verdicts against a machine's per-GPU memory (does Papers fit
// at Scale 1?), which is what core.EstimateMemoryBytesPerDevice now
// delegates to.
//
// The forms are only order-independent — equal in *every* legal replay
// order — under explicit preconditions (enough layers for the broadcast
// slabs to stay live across the loss, enough steps for the sampled
// pipeline's handoff slabs to overlap); PeakForm returns an error outside
// them rather than certifying a bound one unlucky schedule could beat.
package memcheck

import (
	"fmt"
	"sync"

	"mggcn/internal/schedcheck"
)

// Model carries the strategy-independent parameters a peak form is built
// from. Dims is the layer width stack F0..FL. Device selects which device
// the footprint describes (slab sets are per-device: the broadcast-slab
// count depends on the device's position in the stage schedule, and row
// counts on its partition share). The sampled fields are ignored by the
// full-batch forms and vice versa.
type Model struct {
	Dims    []int
	P       int
	Device  int
	Overlap bool

	// Sampled pipeline only.
	Caps  []int // frontier capacities per hop, outermost first (len L+1)
	Depth int   // handoff slots: 2 pipelined, 1 not
	Steps int   // training steps this device executes (batches it owns)
}

// Footprint is one device's certified memory footprint.
type Footprint struct {
	// SlabBytes is the peak bytes of simultaneously live §4.2 slabs over
	// every legal replay order; nil when the
	// slab peak is not order-independent for this model (see Uncertified)
	// or the strategy records no slab access sets (the phantom CAGNET
	// baseline).
	SlabBytes *schedcheck.Expr
	// SlabCount is the matching peak simultaneously-live slab count.
	SlabCount int
	// Resident is the total allocated pool footprint (pool.Used): adjacency
	// tiles, feature shard, model state, and every slab, live or not. It is
	// always emitted — allocation does not depend on replay order — and is
	// the quantity the fit verdicts and core's estimates evaluate.
	Resident *schedcheck.Expr
	// Uncertified, when non-empty, explains why SlabBytes is nil: the model
	// is outside the preconditions under which the slab peak provably equals
	// the same value in every legal replay order.
	Uncertified string
}

// FormFunc builds the footprint of one strategy for a concrete model, or
// reports an error for a model the strategy cannot build at all.
type FormFunc func(Model) (*Footprint, error)

var (
	formsMu sync.RWMutex
	forms   = map[string]FormFunc{}
)

// RegisterPeakForm installs the closed-form footprint for a strategy name.
// Strategy forms self-register from init, mirroring schedcheck's volume
// registry.
func RegisterPeakForm(name string, f FormFunc) {
	formsMu.Lock()
	defer formsMu.Unlock()
	if _, dup := forms[name]; dup {
		panic(fmt.Sprintf("memcheck: duplicate peak form %q", name))
	}
	forms[name] = f
}

// PeakForm builds the registered footprint for the strategy under m.
func PeakForm(name string, m Model) (*Footprint, error) {
	formsMu.RLock()
	f, ok := forms[name]
	formsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("memcheck: no peak form registered for strategy %q", name)
	}
	return f(m)
}
