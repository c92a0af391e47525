package sim

import (
	"fmt"
	"math"
)

// Schedule holds the scheduler's output: a start and end time for every
// task plus aggregate statistics.
type Schedule struct {
	Start, End []float64
	Makespan   float64
	// KindBusy sums task durations by kind over all devices (a task
	// spanning k devices contributes k times, matching how per-GPU
	// profilers like nvprof attribute time in Fig 5).
	KindBusy map[Kind]float64
	// DeviceBusy[d][stream] sums the active time of each stream.
	DeviceBusy [][NumStreams]float64
}

// epsilon guards float comparisons inside the event loop.
const epsilon = 1e-15

// Run executes the rate-sharing discrete-event simulation over the graph
// and returns the schedule. Semantics:
//
//   - Tasks on the same (device, stream) run in issue (FIFO) order, like
//     kernels launched on a CUDA stream.
//   - A task starts when its dependencies have finished and it is at the
//     head of its stream on every device it spans (collectives gate on the
//     whole group, NCCL-style) — that is, when every entry of its
//     Predecessors(EdgeDeps|EdgeFIFO) list has finished.
//   - While a comm task is active on a device, mem-bound compute tasks on
//     that device progress at Spec.ContentionComputeRate and comm tasks at
//     Spec.ContentionCommRate (§6.3's shared-HBM effect).
func (g *Graph) Run() *Schedule {
	n := len(g.Tasks)
	s := &Schedule{
		Start:    make([]float64, n),
		End:      make([]float64, n),
		KindBusy: make(map[Kind]float64),
	}
	s.DeviceBusy = make([][NumStreams]float64, g.P)
	if n == 0 {
		return s
	}

	// A task may start once every direct predecessor — its recorded deps and,
	// on each device it spans, the task issued just before it on its stream —
	// has finished: the same lists the executor and the verifiers walk.
	remaining := make([]float64, n)
	predsLeft := make([]int, n)
	successors := make([][]int, n)
	for i, ps := range g.Predecessors(EdgeDeps | EdgeFIFO) {
		remaining[i] = g.Tasks[i].Seconds
		predsLeft[i] = len(ps)
		for _, p := range ps {
			successors[p] = append(successors[p], i)
		}
	}

	// The active set is a slice plus an index map (activeAt[id] = position
	// or -1): O(1) add/remove without per-segment map iteration, and the
	// hot loop below walks a dense slice. The per-device flag slices are
	// hoisted out of the segment loop and recleared — on a Fig-9 128x
	// graph the per-segment make() calls dominated the scheduler's own
	// profile.
	active := make([]int, 0, g.P*2)
	activeAt := make([]int, n)
	for i := range activeAt {
		activeAt[i] = -1
	}
	finished := 0
	now := 0.0
	commActive := make([]bool, g.P)
	memActive := make([]bool, g.P)

	tryActivate := func(id int) {
		if activeAt[id] < 0 && predsLeft[id] == 0 {
			activeAt[id] = len(active)
			active = append(active, id)
			s.Start[id] = now
		}
	}
	deactivate := func(id int) {
		pos := activeAt[id]
		last := active[len(active)-1]
		active[pos] = last
		activeAt[last] = pos
		active = active[:len(active)-1]
		activeAt[id] = -1
	}

	for i := range g.Tasks {
		tryActivate(i)
	}

	for finished < n {
		if len(active) == 0 {
			panic(fmt.Sprintf("sim: deadlock at t=%g with %d/%d tasks finished (a dependency on a later-issued task)", now, finished, n))
		}
		// Rates for this segment: a device is "comm-active"/"compute-
		// active" if any active task of that class runs on it.
		for d := 0; d < g.P; d++ {
			commActive[d] = false
			memActive[d] = false
		}
		for _, id := range active {
			t := g.Tasks[id]
			for _, dev := range t.Devices {
				if t.Stream == StreamComm {
					commActive[dev] = true
				} else if t.MemBound {
					memActive[dev] = true
				}
			}
		}
		rate := func(id int) float64 {
			t := g.Tasks[id]
			r := 1.0
			for _, dev := range t.Devices {
				var rd float64 = 1
				if t.Stream == StreamComm {
					if memActive[dev] {
						rd = g.Spec.ContentionCommRate
					}
				} else if t.MemBound && commActive[dev] {
					rd = g.Spec.ContentionComputeRate
				}
				if rd < r {
					r = rd // a collective moves at its slowest member
				}
			}
			return r
		}

		// Advance to the earliest completion under current rates.
		dt := math.Inf(1)
		for _, id := range active {
			r := rate(id)
			var need float64
			if r > 0 {
				need = remaining[id] / r
			} else {
				need = math.Inf(1)
			}
			if need < dt {
				dt = need
			}
		}
		if math.IsInf(dt, 1) {
			panic("sim: no active task can make progress")
		}
		if dt < 0 {
			dt = 0
		}
		var completed []int
		for _, id := range active {
			r := rate(id)
			remaining[id] -= r * dt
			if remaining[id] <= epsilon {
				completed = append(completed, id)
			}
		}
		now += dt
		for _, id := range completed {
			deactivate(id)
			finished++
			s.End[id] = now
			t := g.Tasks[id]
			for _, dev := range t.Devices {
				s.DeviceBusy[dev][t.Stream] += s.End[id] - s.Start[id]
			}
			s.KindBusy[t.Kind] += (s.End[id] - s.Start[id]) * float64(len(t.Devices))
			for _, succ := range successors[id] {
				predsLeft[succ]--
			}
		}
		for _, id := range completed {
			for _, succ := range successors[id] {
				tryActivate(succ)
			}
		}
	}
	s.Makespan = now
	return s
}
