// Package memcheck is the static peak-device-memory certifier: the memory
// twin of internal/schedcheck's communication-cost certification (DESIGN.md
// §6.4). For every shipped strategy it provides two independent static
// derivations of the per-device memory high-water of one training epoch —
//
//  1. a closed-form footprint (PeakForm): integer arithmetic over the named
//     fields of a Model (the device's extents and the layer widths) giving
//     the peak number of bytes of §4.2 shared slabs (buffers registered as
//     such with sim.BufRegistry.RegisterOn) that can ever be simultaneously
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
// additionally evaluated at analytic full-scale extents (AnalyticResident)
// to issue fit / no-fit verdicts against a machine's per-GPU memory (does
// Papers fit at Scale 1?), which is what core.EstimateMemoryBytesPerDevice
// delegates to.
//
// The slab peaks are only order-independent — equal in *every* legal replay
// order — under explicit preconditions (enough layers for the broadcast
// slabs to stay live across the loss, enough steps for the sampled
// pipeline's handoff slabs to overlap); outside them PeakForm marks the
// footprint Uncertified rather than certifying a bound one unlucky schedule
// could beat. Where a form does not apply at all — a replication factor
// that does not divide P, a device out of range — PeakForm returns an error.
package memcheck

import "fmt"

// Model carries what a peak form is evaluated at. Dims is the layer width
// stack F0..FL. Device selects which device the footprint describes (slab
// sets are per-device: the broadcast-slab count depends on the device's
// position in the stage schedule, and row counts on its partition share),
// and the extents below are that device's. The sampled fields are ignored
// by the full-batch forms and vice versa.
type Model struct {
	Dims    []int
	P       int
	Device  int
	Overlap bool

	// Full-batch and GAT: the device's row count, the largest partition
	// part's row count (every staging slab is sized for it), and the
	// device's adjacency-tile bytes. Read them from a built trainer's
	// DeviceRows / MaxTileRows / AdjacencyBytes, or AnalyticResident derives
	// them for an unbuilt balanced partition.
	Rows, TileRows, AdjBytes int64

	// Sampled pipeline only.
	Caps      []int // frontier capacities per hop, outermost first (len L+1)
	CacheRows int64 // feature-cache rows
	Depth     int   // handoff slots: 2 pipelined, 1 not
	Steps     int   // training steps this device executes (batches it owns)
}

// Footprint is one device's certified memory footprint, in bytes.
type Footprint struct {
	// SlabBytes is the peak bytes of simultaneously live §4.2 slabs over
	// every legal replay order; 0 when the slab peak is not
	// order-independent for this model — see Uncertified.
	SlabBytes int64
	// SlabCount is the matching peak simultaneously-live slab count.
	SlabCount int
	// Resident is the total allocated pool footprint (pool.Used): adjacency
	// tiles, feature shard, model state, and every slab, live or not. It is
	// always emitted — allocation does not depend on replay order — and is
	// the quantity the fit verdicts and core's estimates report.
	Resident int64
	// Uncertified, when non-empty, explains why SlabBytes is 0: the model
	// is outside the preconditions under which the slab peak provably equals
	// the same value in every legal replay order.
	Uncertified string
}

// PeakForm builds the closed-form footprint of the named strategy under m:
// the three full-batch SpMM strategies (core.Strategy.Name), the GAT
// forward, or the sampled pipeline. A new strategy is a new case here beside
// its row in core's strategy table; the broadcast-staged full-batch family
// shares one form in its replication factor c.
func PeakForm(name string, m Model) (*Footprint, error) {
	switch name {
	case "1d-row", "1d-col", "1.5d":
		return fullBatchFootprint(m, name, replication(name))
	case "gat":
		return gatFootprint(m)
	case "sampled":
		return sampledFootprint(m)
	}
	return nil, fmt.Errorf("memcheck: no peak form for strategy %q", name)
}

// replication returns the replication factor c the named strategy partitions
// at — its blocks are P/c, each stored on c devices: 2 for 1.5D, 1 for the
// rest. It restates core's strategy table (memcheck sits below core); the
// byte-exact cross-checks against recorded graphs hold the two together.
func replication(name string) int {
	if name == "1.5d" {
		return 2
	}
	return 1
}
