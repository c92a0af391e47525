package sim

import (
	"math/rand"
	"testing"
)

// randomGraph records a random task graph over p devices: compute and
// sampler-stream tasks on single devices, collectives over random groups
// (so groups overlap, nest and repeat), each with a few random backward
// deps — everything the recording API can produce.
func randomGraph(rng *rand.Rand, p, n int) *Graph {
	g := NewGraph(DGXA100(), p)
	for i := 0; i < n; i++ {
		var deps []int
		for k := rng.Intn(3); k > 0 && i > 0; k-- {
			deps = append(deps, rng.Intn(i))
		}
		switch rng.Intn(5) {
		case 0, 1:
			g.AddCompute(rng.Intn(p), KindGeMM, "c", -1, 1, false, deps...)
		case 2:
			g.AddStage(rng.Intn(p), StreamSample, KindSample, "s", -1, 1, false, deps...)
		default:
			var devs []int
			for len(devs) == 0 {
				for d := 0; d < p; d++ {
					if rng.Intn(2) == 0 {
						devs = append(devs, d)
					}
				}
			}
			rng.Shuffle(len(devs), func(a, b int) { devs[a], devs[b] = devs[b], devs[a] })
			g.AddComm(devs, "coll", -1, 1, deps...)
		}
	}
	return g
}

// reaches is the naive reference: depth-first search from b back along preds.
func reaches(preds [][]int, a, b int) bool {
	seen := make([]bool, len(preds))
	stack := []int{b}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[t] {
			if p == a {
				return true
			}
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// TestHBMatchesReachability: for every combination of edge sets, the
// bitset closure answers exactly what naive reachability over the same
// Predecessors lists answers, for every ordered pair of tasks.
func TestHBMatchesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 1+rng.Intn(4), 20+rng.Intn(120))
		for edges := Edges(0); edges <= HardwareEdges; edges++ {
			preds := g.Predecessors(edges)
			hb := g.HappensBefore(edges)
			for a := range g.Tasks {
				for b := range g.Tasks {
					if got, want := hb.Before(a, b), reaches(preds, a, b); got != want {
						t.Fatalf("trial %d edges %04b: Before(%d, %d) = %v, reachability says %v", trial, edges, a, b, got, want)
					}
				}
			}
		}
	}
}

// schedcheckReach is schedcheck.checkOrdering's chain construction as it
// stood before the shared closure replaced it, kept verbatim as the
// reference for HardwareEdges: reach[i] holds the indexes into comms of the
// collectives that happen before task i.
func schedcheckReach(g *Graph, comms []*Task) [][]uint64 {
	m := len(comms)
	commIdx := make(map[int]int, m) // task ID -> comm index
	for i, t := range comms {
		commIdx[t.ID] = i
	}

	n := len(g.Tasks)
	words := (m + 63) / 64
	reach := make([][]uint64, n) // comm indexes that happen before task i
	setBit := func(bs []uint64, k int) { bs[k/64] |= 1 << (k % 64) }

	// lastCompute[dev] is the latest compute-stream task per device (for the
	// FIFO edge); lastStream[dev][s] feeds the cross-stream fences, exactly
	// mirroring Graph.Predecessors. prevSameGroup[key] chains same-
	// communicator collectives (linking across interleaved other-group comm
	// tasks, which the plain comm-queue FIFO would not credit).
	lastStream := make([][NumStreams]int, g.P)
	for d := range lastStream {
		for s := range lastStream[d] {
			lastStream[d][s] = -1
		}
	}
	prevSameGroup := make(map[string]int)

	for i := 0; i < n; i++ {
		t := g.Tasks[i]
		bs := make([]uint64, words)
		absorb := func(p int) {
			if p < 0 {
				return
			}
			for w := range bs {
				bs[w] |= reach[p][w]
			}
			if k, ok := commIdx[p]; ok {
				setBit(bs, k)
			}
		}
		for _, d := range t.Deps {
			absorb(d)
		}
		other := t.Stream.FencePeer()
		for _, dev := range t.Devices {
			if t.Stream != StreamComm {
				absorb(lastStream[dev][t.Stream]) // non-comm stream FIFO
			}
			if other >= 0 {
				absorb(lastStream[dev][other]) // cross-stream fence
			}
		}
		if t.Kind == KindComm {
			key := groupKey(t.Devices)
			if p, ok := prevSameGroup[key]; ok {
				absorb(p) // same-communicator program order
			}
			prevSameGroup[key] = i
		}
		for _, dev := range t.Devices {
			lastStream[dev][t.Stream] = i
		}
		reach[i] = bs
	}
	return reach
}

// TestHBHardwareEdgesMatchSchedcheckChain: under HardwareEdges the shared
// closure orders a collective before a task exactly when schedcheck's old
// private chain construction did.
func TestHBHardwareEdgesMatchSchedcheckChain(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 2+rng.Intn(5), 20+rng.Intn(150))
		var comms []*Task
		for _, task := range g.Tasks {
			if task.Kind == KindComm {
				comms = append(comms, task)
			}
		}
		reach := schedcheckReach(g, comms)
		hb := g.HappensBefore(HardwareEdges)
		for i := range g.Tasks {
			for k, c := range comms {
				want := reach[i][k/64]&(1<<(k%64)) != 0
				if got := hb.Before(c.ID, i); got != want {
					t.Fatalf("trial %d: collective %d before task %d: closure %v, chain %v", trial, c.ID, i, got, want)
				}
			}
		}
	}
}

// TestFenceNextIsHostOnly: FenceNext orders the device's next compute task,
// and only that one, after the given tasks — under the executor's edges, not
// under the Deps+FIFO subset the simulator honours. A collective on the
// device in between does not take the ordering.
func TestFenceNextIsHostOnly(t *testing.T) {
	g := NewGraph(DGXA100(), 2)
	reader := g.AddCompute(1, KindSpMM, "reader", 0, 1, true)
	g.FenceNext(0, reader)
	coll := g.AddComm([]int{0}, "coll", -1, 1)
	next := g.AddCompute(0, KindGeMM, "next", -1, 1, false)
	g.AddCompute(0, KindGeMM, "later", -1, 1, false)
	exec, des := g.HappensBefore(ExecutorEdges), g.HappensBefore(EdgeDeps|EdgeFIFO)
	if !exec.Before(reader, next) || des.Before(reader, next) {
		t.Fatalf("reader before next: executor %t, simulator %t; want true, false", exec.Before(reader, next), des.Before(reader, next))
	}
	if exec.Before(reader, coll) {
		t.Fatal("the collective took the compute task's host-only ordering")
	}
	if len(g.After) != 1 || len(g.After[next]) != 1 {
		t.Fatalf("host-only predecessors %v, want only task %d's", g.After, next)
	}
}
