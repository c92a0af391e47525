// Package san sanitizes recorded task graphs. The executor (sim.Graph.
// Execute) promises that its replay is bit-identical to serial execution
// because every pair of tasks touching the same buffer is ordered by one of
// three happens-before edge sets: recorded Deps, per-(device, stream) FIFO,
// and cross-stream fences. That promise is only as good as the graph — a
// missing dependency or a removed fence silently yields a data race that a
// lucky schedule masks. This package checks the promise from both sides:
//
//   - Check is the static side: given the tasks' declared access sets
//     (Task.Reads/Task.Writes over a sim.BufRegistry), it flags every
//     conflicting-access pair with no happens-before path in a sim.HB
//     closure. A closure built without an implicit edge set answers "would
//     this graph survive without fences?" — the shape of bug a scheduler
//     change would reintroduce.
//   - Shadow (shadow.go) is the dynamic side: it replays the graph serially
//     while hashing and NaN-poisoning tracked buffers around every closure,
//     reporting accesses outside the declared sets — the check that the
//     declarations themselves are honest.
//
// The §4.2 live-buffer bound over the same closure is
// internal/memcheck.PeakLiveSlabs.
package san

import (
	"fmt"
	"sort"

	"mggcn/internal/sim"
)

// Conflict is one unordered pair of tasks with a declared access conflict:
// both touch buffer Buf, at least one writes, and neither happens-before
// the other under the closure's edge sets. A is always issued before B.
type Conflict struct {
	Buf        sim.BufID
	Name       string // registry name, "" when the graph carries no registry
	A, B       int    // task IDs in issue order
	ALabel     string
	BLabel     string
	WriteWrite bool // both sides write (else write-read or read-write)
}

func (c Conflict) String() string {
	kind := "write-read"
	if c.WriteWrite {
		kind = "write-write"
	}
	name := c.Name
	if name == "" {
		name = fmt.Sprintf("buf#%d", c.Buf)
	}
	return fmt.Sprintf("%s conflict on %s: task %d %q vs task %d %q (no happens-before path)",
		kind, name, c.A, c.ALabel, c.B, c.BLabel)
}

// Check runs the static happens-before analysis over g's declared access
// sets against hb — g.HappensBefore(sim.ExecutorEdges) for the full executor
// contract — and returns every conflict, ordered by (buffer, issue order).
// A nil result is the clean bill: every declared conflicting pair is ordered
// by the closure's edges. Tasks with empty access sets never conflict —
// Check is only as complete as the declarations, which the Shadow observer
// and the accessdecl vet rule keep honest.
func Check(g *sim.Graph, hb *sim.HB) []Conflict {
	// Per-buffer accessor lists in issue order.
	type access struct {
		task  int
		write bool
	}
	byBuf := make(map[sim.BufID][]access)
	for _, t := range g.Tasks {
		for _, b := range t.Reads {
			byBuf[b] = append(byBuf[b], access{t.ID, false})
		}
		for _, b := range t.Writes {
			byBuf[b] = append(byBuf[b], access{t.ID, true})
		}
	}
	bufs := make([]sim.BufID, 0, len(byBuf))
	for b := range byBuf {
		bufs = append(bufs, b)
	}
	sort.Slice(bufs, func(i, j int) bool { return bufs[i] < bufs[j] })

	var out []Conflict
	for _, b := range bufs {
		accs := byBuf[b]
		sort.Slice(accs, func(i, j int) bool { return accs[i].task < accs[j].task })
		// A task declaring the same buffer in Reads and Writes appears twice;
		// report each conflicting pair once per buffer.
		seen := make(map[[2]int]bool)
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				if accs[i].task == accs[j].task || (!accs[i].write && !accs[j].write) {
					continue
				}
				if seen[[2]int{accs[i].task, accs[j].task}] {
					continue
				}
				if hb.Before(accs[i].task, accs[j].task) {
					continue
				}
				seen[[2]int{accs[i].task, accs[j].task}] = true
				var name string
				if g.Reg != nil {
					name = g.Reg.Name(b)
				}
				out = append(out, Conflict{
					Buf: b, Name: name,
					A: accs[i].task, B: accs[j].task,
					ALabel:     g.Tasks[accs[i].task].Label,
					BLabel:     g.Tasks[accs[j].task].Label,
					WriteWrite: accs[i].write && accs[j].write,
				})
			}
		}
	}
	return out
}
