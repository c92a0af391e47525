package schedcheck

import (
	"fmt"
	"sort"

	"mggcn/internal/sim"
)

// CheckCollectives verifies the graph's communication structure without
// executing anything:
//
//   - every comm task carries a sim.Collective annotation whose group
//     matches the devices the task spans, with a well-formed root and
//     payload (collective *matching*: each member observes the same
//     operation with the same participants);
//   - collectives on overlapping but DIFFERENT communicators are ordered by
//     a happens-before path the real machine also enforces (deadlock
//     freedom). On hardware, each rank enqueues collectives in its local
//     program order; two communicators that share a device but are not the
//     same group have no implicit mutual order, and an unordered overlapping
//     pair is exactly the NCCL hang: some ranks enter collective A while the
//     shared rank sits in B. The credited edges are sim.HardwareEdges: the
//     executor's recorded deps, stream FIFO and cross-stream fences, with
//     the comm-stream FIFO restricted to SAME-communicator pairs (a
//     consistent SPMD program order makes same-group collectives safe; the
//     raw record order of different groups is an artifact of the global
//     recorder, not a synchronization).
//
// Same-communicator pairs are exempt from the path requirement.
func CheckCollectives(g *sim.Graph) []Finding {
	var out []Finding

	// Pass 1: per-task annotation well-formedness.
	var comms []*sim.Task // annotated comm tasks, in issue order
	for _, t := range g.Tasks {
		if t.Kind != sim.KindComm {
			if t.Coll != nil {
				out = append(out, finding(t, "collective", "non-comm task carries a collective annotation"))
			}
			continue
		}
		c := t.Coll
		if c == nil {
			out = append(out, finding(t, "collective",
				"comm task has no collective annotation; issue it through comm.Group or attach one with Graph.AnnotateCollective"))
			continue
		}
		if !sameDeviceSet(c.Group, t.Devices) {
			out = append(out, finding(t, "collective",
				"annotation group %v does not match the devices the task spans %v", c.Group, t.Devices))
			continue
		}
		if msg := validateMembers(c); msg != "" {
			out = append(out, finding(t, "collective", "%s", msg))
			continue
		}
		if c.Rows < 0 || c.Cols < 0 || c.Scale < 1 {
			out = append(out, finding(t, "collective",
				"malformed payload %dx%d scale %d", c.Rows, c.Cols, c.Scale))
			continue
		}
		comms = append(comms, t)
	}

	// Pass 2: happens-before ordering of overlapping distinct communicators.
	out = append(out, checkOrdering(g, comms)...)
	return out
}

func validateMembers(c *sim.Collective) string {
	seen := make(map[int]bool, len(c.Group))
	rootIn := false
	for _, d := range c.Group {
		if seen[d] {
			return fmt.Sprintf("device %d appears twice in group %v", d, c.Group)
		}
		seen[d] = true
		if d == c.Root {
			rootIn = true
		}
	}
	rooted := c.Op == sim.CollBroadcast || c.Op == sim.CollReduce
	if rooted && !rootIn {
		return fmt.Sprintf("%s root %d is not a member of group %v", c.Op, c.Root, c.Group)
	}
	if !rooted && c.Root != -1 {
		return fmt.Sprintf("rootless %s carries root %d (want -1)", c.Op, c.Root)
	}
	return ""
}

func sameDeviceSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[int]bool, len(a))
	for _, d := range a {
		set[d] = true
	}
	for _, d := range b {
		if !set[d] {
			return false
		}
	}
	return true
}

// checkOrdering requires a sim.HardwareEdges path between every pair of comm
// tasks whose groups overlap without being equal.
func checkOrdering(g *sim.Graph, comms []*sim.Task) []Finding {
	m := len(comms)
	if m < 2 {
		return nil
	}
	hb := g.HappensBefore(sim.HardwareEdges)

	var out []Finding
	for bi := 1; bi < m; bi++ {
		b := comms[bi]
		for ai := 0; ai < bi; ai++ {
			a := comms[ai]
			if !overlapDistinct(a.Devices, b.Devices) {
				continue
			}
			if !hb.Before(a.ID, b.ID) {
				out = append(out, finding(b, "collective",
					"unordered against overlapping collective task %d %q (groups %v vs %v share devices %v): "+
						"no dependency, fence or same-communicator order connects them — on hardware the shared "+
						"devices can enter either collective first and deadlock; add a dependency edge between them",
					a.ID, a.Label, a.Devices, b.Devices, sharedDevices(a.Devices, b.Devices)))
			}
		}
	}
	return out
}

func overlapDistinct(a, b []int) bool {
	if sameDeviceSet(a, b) {
		return false
	}
	return len(sharedDevices(a, b)) > 0
}

func sharedDevices(a, b []int) []int {
	set := make(map[int]bool, len(a))
	for _, d := range a {
		set[d] = true
	}
	var out []int
	for _, d := range b {
		if set[d] {
			out = append(out, d)
		}
	}
	sort.Ints(out)
	return out
}
