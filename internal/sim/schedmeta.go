package sim

import (
	"fmt"

	"mggcn/internal/tensor"
)

// This file is the schedule-metadata layer internal/schedcheck interprets:
// shaped access declarations (which buffer a task touches *and* at what
// matrix extent) and collective annotations (which ranks a comm task spans,
// what payload it moves, and its operation class). Both are recorded
// alongside the graph and never consulted by the executor — they exist so a
// recorded schedule can be verified symbolically without running a single
// closure.

// CollOp classifies a collective for matching and cost certification.
type CollOp int

const (
	CollBroadcast CollOp = iota
	CollReduce
	CollAllReduce
	// CollGatherHit / CollGatherMiss are not collectives: they are the
	// comm.Meter accounting keys for the sampled pipeline's feature-gather
	// traffic (cache-hit words served from HBM vs. miss words crossing the
	// host link). They are deliberately absent from CollOps() — the
	// schedcheck cost-certification goldens iterate that list and gather
	// traffic never appears on the comm stream.
	CollGatherHit
	CollGatherMiss
)

func (o CollOp) String() string {
	switch o {
	case CollBroadcast:
		return "broadcast"
	case CollReduce:
		return "reduce"
	case CollAllReduce:
		return "allreduce"
	case CollGatherHit:
		return "gather-hit"
	case CollGatherMiss:
		return "gather-miss"
	default:
		return fmt.Sprintf("CollOp(%d)", int(o))
	}
}

// CollOps lists every collective operation in display order.
func CollOps() []CollOp {
	return []CollOp{CollBroadcast, CollReduce, CollAllReduce}
}

// Collective annotates one comm task with the facts a symbolic verifier
// needs: the operation, the participating devices (global IDs, in group
// order), the root's global device ID (-1 for rootless ops), and the payload
// extent. Rows x Cols is the per-member payload; Scale is the dataset
// byte-scale multiplier the words metric carries (DESIGN.md §2).
type Collective struct {
	Op    CollOp
	Root  int // global device ID; -1 for rootless collectives
	Group []int
	Rows  int
	Cols  int
	Scale int64
}

// Words returns the exact number of full-scale float32 words the collective
// moves over the interconnect — the integer volume metric the cost
// certification sums (no bandwidth division, no rounding):
//
//	broadcast:  (g-1) · Rows·Cols · Scale   (root sends to each other rank)
//	reduce:     (g-1) · Rows·Cols · Scale   (each non-root sends to root)
//	allreduce:  2·(g-1) · Rows·Cols · Scale (reduce-scatter + all-gather ring)
func (c *Collective) Words() int64 {
	g := int64(len(c.Group))
	payload := int64(c.Rows) * int64(c.Cols) * c.Scale
	switch c.Op {
	case CollAllReduce:
		return 2 * (g - 1) * payload
	default:
		return (g - 1) * payload
	}
}

// AnnotateCollective attaches a collective annotation to comm task id. The
// group is copied; annotating twice replaces the previous annotation.
func (g *Graph) AnnotateCollective(id int, c *Collective) {
	if id < 0 || id >= len(g.Tasks) {
		panic(fmt.Sprintf("sim: AnnotateCollective of unknown task %d", id))
	}
	t := g.Tasks[id]
	if t.Kind != KindComm {
		panic(fmt.Sprintf("sim: AnnotateCollective of non-comm task %q", t.Label))
	}
	cp := *c
	cp.Group = append([]int(nil), c.Group...)
	t.Coll = &cp
}

// ViewShape is one entry of a shaped access declaration: a registered buffer
// plus the matrix extent the closure touches it at. Rows == 0 marks an
// *opaque* access (a pseudo-buffer with no dense extent, e.g. the sampled
// trainer's handoff slot, which holds a step's sampled blocks): it
// participates in happens-before ordering but is skipped by shape-flow typing.
type ViewShape struct {
	Buf  BufID
	Rows int
	Cols int
}

// Opaque reports whether the entry declares no dense extent.
func (v ViewShape) Opaque() bool { return v.Rows == 0 }

// ShapesOf collects the registry stamps and extents of the given views,
// skipping nil and unregistered (zero-stamped) ones — the bridge between the
// *tensor.Dense views closures actually touch and the access sets they
// declare. Passing the very views the closure captures keeps declaration and
// use in sync (the accessdecl vet rule checks this textually).
func ShapesOf(views ...*tensor.Dense) []ViewShape {
	var out []ViewShape
	for _, v := range views {
		if v != nil && v.Buf != 0 {
			out = append(out, ViewShape{Buf: BufID(v.Buf), Rows: v.Rows, Cols: v.Cols})
		}
	}
	return out
}

// OpaqueShape declares an access to a registered pseudo-buffer that has no
// dense extent (the sampled trainer's slot handoff from its sample task to
// the step that trains from it): ordered by the sanitizer, ignored by shape
// typing.
func OpaqueShape(id BufID) ViewShape { return ViewShape{Buf: id} }

// BindShaped attaches fn as task id's host-execution closure together with
// its access declaration. Recording and execution are split on purpose:
// AddCompute/AddComm only describe the task, BindShaped captures its real
// arithmetic, and Graph.Execute later replays every bound closure in
// dependency order (see exec.go). reads and writes name the registered
// buffers fn touches (Writes entries may also be read — an accumulating SpMM
// or in-place ReLU reads its destination) and the matrix shapes it touches
// them at, so the sanitizer can order the task and internal/schedcheck can
// type the schedule without executing it. A task can be bound at most once.
// Closures that can fail use BindShapedE instead.
func (g *Graph) BindShaped(id int, reads, writes []ViewShape, fn func()) {
	if fn == nil {
		panic(fmt.Sprintf("sim: Bind of nil closure to task %d", id))
	}
	g.BindShapedE(id, reads, writes, func() error { fn(); return nil })
}

// BindShapedE is BindShaped for fallible closures: a non-nil return from fn
// cancels the rest of the replay and surfaces from Execute as a *TaskError.
// The declared sets describe what fn touches when it runs to completion; a
// closure that fails before moving data simply leaves them untouched.
func (g *Graph) BindShapedE(id int, reads, writes []ViewShape, fn func() error) {
	if id < 0 || id >= len(g.Tasks) {
		panic(fmt.Sprintf("sim: Bind of unknown task %d", id))
	}
	t := g.Tasks[id]
	if fn == nil {
		panic(fmt.Sprintf("sim: Bind of nil closure to task %q", t.Label))
	}
	if t.Exec != nil {
		panic(fmt.Sprintf("sim: task %q already bound", t.Label))
	}
	if id < g.executed {
		panic(fmt.Sprintf("sim: Bind of task %q after Execute already replayed it", t.Label))
	}
	g.DeclareShaped(id, reads, writes)
	t.Exec = fn
	g.bound++
}

// DeclareShaped records shaped access sets without binding a closure. The
// flat BufID sets (Task.Reads/Writes) are derived from the shapes, so the
// sanitizer and the shape checker always agree on what is accessed.
// Declaring twice replaces the previous sets. Only tests call it outside
// BindShapedE, to declare access sets on closure-free graphs.
func (g *Graph) DeclareShaped(id int, reads, writes []ViewShape) {
	if id < 0 || id >= len(g.Tasks) {
		panic(fmt.Sprintf("sim: DeclareShaped of unknown task %d", id))
	}
	t := g.Tasks[id]
	t.Reads, t.InShapes = shapeBufs(reads)
	t.Writes, t.OutShapes = shapeBufs(writes)
}

// shapeBufs splits a shape list into the flat BufID set and the kept shape
// entries, dropping zero-stamped (unregistered) entries.
func shapeBufs(shapes []ViewShape) ([]BufID, []ViewShape) {
	var ids []BufID
	var kept []ViewShape
	for _, s := range shapes {
		if s.Buf != 0 {
			ids = append(ids, s.Buf)
			kept = append(kept, s)
		}
	}
	return ids, kept
}
