// Package schedcheck is a static verifier for recorded sim.Graph
// schedules: it walks a graph's declared access sets, shaped extents and
// collective annotations — never executing a closure — and proves three
// properties per strategy and layer stack (DESIGN.md §6.3):
//
//  1. collective matching / deadlock-freedom: every device of a communicator
//     observes a consistent collective order, and collectives on overlapping
//     but distinct communicators are happens-before ordered by the executor's
//     own edges (CheckCollectives);
//  2. shape-flow typing: tensor extents propagate through SpMM / GeMM /
//     activation / collective tasks and every bind's buffers unify
//     (CheckShapes);
//  3. cost certification: the schedule's communication volume, summed from
//     its annotations, equals the closed form registered for the strategy
//     (VolumeForm), with exact integer equality (CertifyVolume). A closed
//     form is integer Go over the named fields of a Model (N, P, S and the
//     layer widths); a form that only holds when its replication factor
//     divides P says so with an error rather than rounding.
package schedcheck

import (
	"fmt"

	"mggcn/internal/sim"
)

// Finding is one verification failure. Findings are diagnostics, not errors:
// a verified schedule yields none, and every finding names the offending
// task and says what to change.
type Finding struct {
	Check string // "collective", "shape" or "cost"
	Task  int    // offending task ID, -1 when not task-specific
	Label string // offending task's label ("" when not task-specific)
	Msg   string
}

func (f Finding) String() string {
	if f.Task >= 0 {
		return fmt.Sprintf("[%s] task %d %q: %s", f.Check, f.Task, f.Label, f.Msg)
	}
	return fmt.Sprintf("[%s] %s", f.Check, f.Msg)
}

// Check runs the structural passes — collective matching/deadlock-freedom
// and shape-flow typing — over one recorded graph. Cost certification needs
// a strategy's closed form and runs separately via CertifyVolume.
func Check(g *sim.Graph) []Finding {
	out := CheckCollectives(g)
	out = append(out, CheckShapes(g)...)
	return out
}

func finding(t *sim.Task, check, format string, args ...interface{}) Finding {
	return Finding{Check: check, Task: t.ID, Label: t.Label, Msg: fmt.Sprintf(format, args...)}
}
