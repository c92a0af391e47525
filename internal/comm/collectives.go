// Package comm implements the NCCL-style collectives MG-GCN uses:
// broadcast (the per-stage H-tile exchange of §4.1) and all-reduce (the
// per-step weight-gradient reduction). Each collective does two things:
// moves real data between the per-device buffers, and appends a timed comm
// task spanning the whole group to the simulation task graph, priced by the
// machine's topology model.
package comm

import (
	"fmt"

	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// Group is a communicator over a task graph — all P devices by default, or
// an explicit subset (replica groups, device pairs) via Sub.
//
// BytesScale multiplies the payload size used to *price* Broadcast and
// ReduceSum calls, which carry feature-matrix blocks (not AllReduceSum,
// which carries unscaled weight gradients): a trainer running a 1/S-scaled
// dataset sets BytesScale = S so the simulated communication times are
// those of the full-scale problem (DESIGN.md §2).
type Group struct {
	Graph      *sim.Graph
	BytesScale int64
	// Meter, when set, counts the words every collective moves (Sub
	// inherits it) — the measured side of schedcheck's cost certification.
	Meter *Meter
	// devices are the group members; nil means all of Graph's devices.
	devices []int
}

// New creates a communicator over all devices with BytesScale 1.
func New(g *sim.Graph) *Group { return &Group{Graph: g, BytesScale: 1} }

// Sub returns a communicator over the given device subset, inheriting the
// byte scale and the meter. Collective costs
// use the subset's link topology (§5.1: a 4-GPU group of a DGX-1 sees 4
// links; a cross-group pair sees 2).
//
// The subset is validated against the *parent's* membership, so a nested
// Sub-of-Sub cannot silently re-admit a device the outer Sub removed (the
// elastic path shrinks groups repeatedly; a resurrected rank would hang the
// collective waiting on a device that no longer participates). Out-of-range,
// duplicate, non-member or empty subsets panic, consistent with checkBufs.
func (c *Group) Sub(devices []int) *Group {
	if len(devices) == 0 {
		panic("comm: Sub of empty device set")
	}
	parent := c.members()
	member := make(map[int]bool, len(parent))
	for _, d := range parent {
		member[d] = true
	}
	ds := make([]int, len(devices))
	seen := make(map[int]bool, len(devices))
	for i, d := range devices {
		if !member[d] {
			panic(fmt.Sprintf("comm: Sub device %d is not a member of the parent group %v", d, parent))
		}
		if seen[d] {
			panic(fmt.Sprintf("comm: Sub device %d listed twice in %v", d, devices))
		}
		seen[d] = true
		ds[i] = d
	}
	return &Group{Graph: c.Graph, BytesScale: c.BytesScale, Meter: c.Meter, devices: ds}
}

// P returns the group size.
func (c *Group) P() int { return len(c.members()) }

// members returns the group's device list (all of the graph's by default).
func (c *Group) members() []int {
	if c.devices != nil {
		return c.devices
	}
	ds := make([]int, c.Graph.P)
	for i := range ds {
		ds[i] = i
	}
	return ds
}

// shapes collects the registry IDs and extents of a per-device buffer set,
// skipping the member at index skip (-1: none) — how collectives derive their
// shaped access declarations from the views they are handed, without the
// caller repeating itself. Unregistered views contribute nothing.
func shapes(bufs []*tensor.Dense, skip int) []sim.ViewShape {
	var out []sim.ViewShape
	for i, b := range bufs {
		if i == skip || b == nil || b.Buf == 0 {
			continue
		}
		out = append(out, sim.ViewShape{Buf: sim.BufID(b.Buf), Rows: b.Rows, Cols: b.Cols})
	}
	return out
}

// checkBufs validates a per-device buffer set: one buffer per device, all
// the same shape.
func (c *Group) checkBufs(op string, bufs []*tensor.Dense) {
	if len(bufs) != c.P() {
		panic(fmt.Sprintf("comm: %s with %d buffers for %d devices", op, len(bufs), c.P()))
	}
	for i, b := range bufs {
		if b.Rows != bufs[0].Rows || b.Cols != bufs[0].Cols {
			panic(fmt.Sprintf("comm: %s buffer %d shape %dx%d != %dx%d", op, i, b.Rows, b.Cols, bufs[0].Rows, bufs[0].Cols))
		}
	}
}

// Broadcast records the copy of src (resident on device root) into dst[i]
// on every other device and emits one collective comm task. The data
// movement itself is bound to the task as an Exec closure and runs when
// sim.Graph.Execute replays the graph, after the task's deps — only the
// shape checks happen at record time. dst[root] is left untouched (the
// paper's implementation reads the root's own tile from its resident
// buffer). Shape-only destinations, like the staged SpMM's BC slabs whose
// readers read src in place, move nothing; the task still prices, declares
// and meters the move. Returns the task ID to depend on.
func (c *Group) Broadcast(root int, src *tensor.Dense, dst []*tensor.Dense, label string, stage int, deps ...int) int {
	if len(dst) != c.P() {
		panic(fmt.Sprintf("comm: broadcast with %d destinations for %d devices", len(dst), c.P()))
	}
	if root < 0 || root >= c.P() {
		panic(fmt.Sprintf("comm: broadcast root %d outside group of %d", root, c.P()))
	}
	for i, d := range dst {
		if i == root {
			continue
		}
		if d.Rows != src.Rows || d.Cols != src.Cols {
			panic(fmt.Sprintf("comm: broadcast dst %d shape %dx%d != src %dx%d", i, d.Rows, d.Cols, src.Rows, src.Cols))
		}
	}
	seconds := c.Graph.Spec.BroadcastCost(src.Bytes()*c.BytesScale, c.P())
	id := c.Graph.AddComm(c.members(), label, stage, seconds, deps...)
	c.Graph.AnnotateCollective(id, &sim.Collective{
		Op: sim.CollBroadcast, Root: c.members()[root], Group: c.members(),
		Rows: src.Rows, Cols: src.Cols, Scale: c.BytesScale,
	})
	c.Meter.Add(sim.CollBroadcast,
		int64(c.P()-1)*int64(src.Rows)*int64(src.Cols)*c.BytesScale)
	// Reads the root's resident block, writes every other destination;
	// dst[root] is untouched and stays out of the declaration.
	c.Graph.BindShaped(id, sim.ShapesOf(src), shapes(dst, root), func() {
		for i, d := range dst {
			if i != root {
				d.CopyFrom(src)
			}
		}
	})
	return id
}

// AllReduceSum sums the per-device buffers elementwise and writes the total
// back into every buffer (ring all-reduce semantics), emitting one comm
// task whose Exec closure performs the reduction at replay time. The sum
// always accumulates in group-member order, so results are bit-identical
// however the executor interleaves surrounding tasks. Returns the task ID.
func (c *Group) AllReduceSum(bufs []*tensor.Dense, label string, deps ...int) int {
	c.checkBufs("allreduce", bufs)
	seconds := c.Graph.Spec.AllReduceCost(bufs[0].Bytes(), c.P())
	id := c.Graph.AddComm(c.members(), label, -1, seconds, deps...)
	c.annotateAllReduce(id, bufs, 1)
	c.bindAllReduce(id, bufs)
	return id
}

// AllReduceSumScaled is AllReduceSum for feature-sized payloads: the
// collective cost scales with BytesScale (the 1.5D strategy's cross-group
// partial-result reduction).
func (c *Group) AllReduceSumScaled(bufs []*tensor.Dense, label string, deps ...int) int {
	c.checkBufs("allreduce", bufs)
	seconds := c.Graph.Spec.AllReduceCost(bufs[0].Bytes()*c.BytesScale, c.P())
	id := c.Graph.AddComm(c.members(), label, -1, seconds, deps...)
	c.annotateAllReduce(id, bufs, c.BytesScale)
	c.bindAllReduce(id, bufs)
	return id
}

// annotateAllReduce attaches the collective annotation shared by both
// all-reduce flavours and meters the 2·(g−1)·payload ring volume.
func (c *Group) annotateAllReduce(id int, bufs []*tensor.Dense, scale int64) {
	c.Graph.AnnotateCollective(id, &sim.Collective{
		Op: sim.CollAllReduce, Root: -1, Group: c.members(),
		Rows: bufs[0].Rows, Cols: bufs[0].Cols, Scale: scale,
	})
	c.Meter.Add(sim.CollAllReduce,
		2*int64(c.P()-1)*int64(bufs[0].Rows)*int64(bufs[0].Cols)*scale)
}

// bindAllReduce attaches the elementwise sum-and-replicate closure to task
// id.
func (c *Group) bindAllReduce(id int, bufs []*tensor.Dense) {
	// Every member buffer is read and then overwritten with the total. The
	// movement is not idempotent (after the write-back every buffer holds
	// the total), which is why the executor's retry loop decides before the
	// closure runs: a failed attempt never starts the reduction.
	c.Graph.BindShaped(id, nil, shapes(bufs, -1), func() {
		total := bufs[0].Clone()
		for i := 1; i < len(bufs); i++ {
			tensor.AddInPlace(total, bufs[i])
		}
		for _, b := range bufs {
			b.CopyFrom(total)
		}
	})
}

// ReduceSum sums the per-device buffers into bufs[root] only, emitting one
// comm task bound to the reduction closure. Other buffers keep their
// contributions. root and the buffer order are group-member positions.
// Feature-sized: cost scales with BytesScale.
func (c *Group) ReduceSum(root int, bufs []*tensor.Dense, label string, deps ...int) int {
	c.checkBufs("reduce", bufs)
	seconds := c.Graph.Spec.ReduceCost(bufs[0].Bytes()*c.BytesScale, c.P())
	id := c.Graph.AddComm(c.members(), label, -1, seconds, deps...)
	c.Graph.AnnotateCollective(id, &sim.Collective{
		Op: sim.CollReduce, Root: c.members()[root], Group: c.members(),
		Rows: bufs[0].Rows, Cols: bufs[0].Cols, Scale: c.BytesScale,
	})
	c.Meter.Add(sim.CollReduce,
		int64(c.P()-1)*int64(bufs[0].Rows)*int64(bufs[0].Cols)*c.BytesScale)
	// Non-root contributions are read-only; the root accumulates. Like the
	// all-reduce, the accumulation is not idempotent.
	c.Graph.BindShaped(id, shapes(bufs, root), sim.ShapesOf(bufs[root]), func() {
		for i, b := range bufs {
			if i != root {
				tensor.AddInPlace(bufs[root], b)
			}
		}
	})
	return id
}
