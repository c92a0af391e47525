package sim

import (
	"sort"
	"strconv"
	"strings"
)

// Edges selects happens-before edge sets over a recorded graph. All of them
// point from earlier to later issue order, so task index is a topological
// order of any combination.
type Edges uint8

const (
	// EdgeDeps are the recorded data dependencies (Task.Deps).
	EdgeDeps Edges = 1 << iota
	// EdgeFIFO is per-(device, stream) issue order: each task's immediate
	// predecessor on every one of its device queues — transitively the
	// whole queue prefix.
	EdgeFIFO
	// EdgeFences are the cross-stream fences: the latest earlier-issued
	// task on the fence-peer stream of each of the task's devices, and the
	// task's host-only predecessors (Graph.After).
	EdgeFences
	// EdgePerCommunicator narrows EdgeFIFO on the comm stream to pairs on
	// the same communicator (the same device set): a collective's FIFO
	// predecessor is the previous collective of its own group, however many
	// other groups' collectives were recorded in between, and collectives of
	// different groups that share a device get no FIFO edge at all. Hardware
	// enqueues per communicator; the record order of different groups is an
	// artifact of the global recorder, not a synchronization.
	EdgePerCommunicator

	// ExecutorEdges is the contract Graph.Execute enforces (exec.go's
	// numbered list) — what internal/san checks declared accesses against
	// and internal/memcheck derives liveness from.
	ExecutorEdges = EdgeDeps | EdgeFIFO | EdgeFences
	// HardwareEdges is what a real machine also enforces between
	// collectives — schedcheck's deadlock-freedom edge set.
	HardwareEdges = ExecutorEdges | EdgePerCommunicator
)

// Predecessors returns, for every task, its direct happens-before
// predecessors under the selected edge sets. Dropping a set answers "is
// this graph safe without that mechanism?" — the shape of bug a removed
// fence would reintroduce. The one edge contract has three consumers: the
// executor (Execute gates every closure on ExecutorEdges), the verifiers
// (san, memcheck and schedcheck close these lists with HappensBefore), and
// the simulator (Run starts a task when its EdgeDeps|EdgeFIFO list has
// finished — streams and dependencies, not the host-side fences).
func (g *Graph) Predecessors(edges Edges) [][]int {
	n := len(g.Tasks)
	preds := make([][]int, n)
	lastOn := make([][NumStreams]int, g.P)
	for d := range lastOn {
		lastOn[d] = noTasks()
	}
	lastInGroup := map[string]int{} // communicator -> its latest collective
	fifo, fences := edges&EdgeFIFO != 0, edges&EdgeFences != 0
	for i, t := range g.Tasks {
		if edges&EdgeDeps != 0 {
			preds[i] = append(preds[i], t.Deps...)
		}
		perGroup := fifo && edges&EdgePerCommunicator != 0 && t.Stream == StreamComm
		if perGroup {
			key := groupKey(t.Devices)
			if c, ok := lastInGroup[key]; ok {
				preds[i] = append(preds[i], c)
			}
			lastInGroup[key] = i
		}
		if fences {
			preds[i] = append(preds[i], g.After[i]...)
		}
		other := t.Stream.FencePeer()
		for _, dev := range t.Devices {
			if fifo && !perGroup {
				if c := lastOn[dev][t.Stream]; c >= 0 {
					preds[i] = append(preds[i], c)
				}
			}
			if fences && other >= 0 {
				if c := lastOn[dev][other]; c >= 0 {
					preds[i] = append(preds[i], c)
				}
			}
		}
		for _, dev := range t.Devices {
			lastOn[dev][t.Stream] = i
		}
	}
	return preds
}

// noTasks returns a per-stream "no task yet" marker set.
func noTasks() [NumStreams]int {
	var m [NumStreams]int
	for s := range m {
		m[s] = -1
	}
	return m
}

// groupKey canonicalizes a device set so communicators compare by membership.
func groupKey(devs []int) string {
	ds := append([]int(nil), devs...)
	sort.Ints(ds)
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, ",")
}

// HB is the transitive closure of a graph's happens-before relation under
// one edge set: n rows of ⌈n/64⌉ words, row i holding task i's strict
// ancestors. Build it once per graph and edge set (HappensBefore) and share
// it between the analyses that query it.
type HB struct {
	words int
	anc   []uint64 // row-major, n x words
}

// HappensBefore closes Predecessors(edges) transitively. Every predecessor
// has a smaller index, so one ascending pass closes the relation — the
// vector-clock join collapses to a bitwise OR.
func (g *Graph) HappensBefore(edges Edges) *HB {
	n := len(g.Tasks)
	h := &HB{words: (n + 63) / 64}
	h.anc = make([]uint64, n*h.words)
	for i, ps := range g.Predecessors(edges) {
		row := h.anc[i*h.words : (i+1)*h.words]
		for _, p := range ps {
			row[p/64] |= 1 << (p % 64)
			for w, bits := range h.anc[p*h.words : (p+1)*h.words] {
				row[w] |= bits
			}
		}
	}
	return h
}

// Before reports whether task a is forced strictly before task b: some
// path of selected edges leads from a to b. Before(a, a) is false.
func (h *HB) Before(a, b int) bool {
	return h.anc[b*h.words+a/64]&(1<<(a%64)) != 0
}
