package sim

import (
	"fmt"
	"runtime"
	"time"

	"mggcn/internal/pool"
	"mggcn/internal/rng"
)

// This file is the host-side twin of sched.go: where Run *simulates* the
// recorded task graph against the machine's timing model, Execute *replays*
// it for real, running each task's recorded Exec closure on a persistent
// worker pool once its dependencies have finished. Independent tasks —
// different simulated devices, compute vs comm streams — run concurrently,
// which is the paper's whole point (§4.1/§4.3: P GPUs execute their SpMM
// stages with communication overlapped). Results are bit-identical to a
// serial replay because every pair of tasks that touch the same buffer is
// ordered by one of the three edge sets below, so each closure's arithmetic
// sees exactly the operands it would have seen inline.
//
// Execute honors three kinds of ordering, the first two shared with Run —
// Graph.Predecessors(ExecutorEdges) in hb.go is their one implementation,
// which execute schedules from and the verifiers analyse:
//
//  1. Deps edges — the recorded data dependencies (audited by the taskdep
//     vet rule).
//  2. Per-(device, stream) FIFO — tasks on one device's stream run in
//     issue order, like kernels launched on a CUDA stream. This is what
//     serializes the stage-j and stage-j+1 SpMMs that accumulate into the
//     same output block.
//  3. Cross-stream fences — a compute or comm task may not start before
//     the latest earlier-issued task on its fence-peer stream
//     (StreamID.FencePeer: compute <-> comm; the sampler stream neither
//     fences nor is fenced — its handoffs are recorded Deps edges) of each
//     of its devices has
//     completed (per-stream FIFO then transitively orders it after every
//     earlier task on that queue). Both directions matter and neither is
//     recorded as a Deps edge, because both are anti-dependencies the
//     simulator cannot observe (simulated tasks touch no data):
//
//       - compute after comm: a collective READS device buffers (a
//         broadcast streams the root's resident block), so the next kernel
//         overwriting the root's buffer must wait for the broadcast to
//         finish reading it;
//       - comm after compute: a collective WRITES buffers on every device
//         it spans (1D-col's reduction partials), so it must wait for
//         earlier-issued kernels still reading them. A staged broadcast's
//         BC slab is shape-only — its readers multiply the root's block in
//         place — so here this direction puts them before the group's next
//         broadcast, and thus before the root's next kernel.
//
//     The set also carries host-only predecessors (Graph.After): after a
//     group's last stage no broadcast follows those readers, so the root's
//     next kernel waits for them directly (Graph.FenceNext).
//
//     The fence costs little: collective closures are memcpy-bound while
//     compute closures carry the FLOPs, and compute tasks on different
//     devices — the parallelism that pays for the replay — never fence each
//     other (cross-device data only flows through collectives). Note this
//     makes the replay more conservative than the simulation: Run still
//     models §4.3's comm/compute overlap in simulated time; Execute
//     serializes a collective behind earlier kernels on its devices to keep
//     the arithmetic race-free.
//
// All three edge sets point from earlier to later issue order, so the
// executor cannot deadlock on a graph that Graph.add accepted.

// Execute replays the graph's bound closures in dependency order with up to
// workers tasks in flight at once (workers <= 0: GOMAXPROCS). workers == 1
// is the serial-issue path: every closure runs in a topological order
// equivalent to inline execution at record time. A graph with no bound
// closures returns immediately.
//
// Execute is incremental: each call replays only tasks recorded since the
// previous call (a watermark, not a per-task flag), so record → execute →
// record more → execute again never re-runs a closure — re-running an
// all-reduce would double-count. Earlier tasks are treated as already done
// when the new suffix's deps point at them.
//
// Replayed closures run on the process-wide internal/pool workers — the
// same pool the Parallel* kernels draw lanes from — so N in-flight tasks
// and their kernels share one worker budget instead of oversubscribing the
// host with N goroutine sets. The pool is grown to this call's
// in-flight budget first: closures may block on each other's side effects
// (a barrier in tests, a channel in custom binds), so the budget must be
// realizable even when GOMAXPROCS is smaller.
//
// Execute is fallible: when a closure (or the Fault hook, after the retry
// loop of fault.go) returns an error, the executor stops issuing new tasks,
// drains the tasks already in flight, and returns the first failure wrapped
// in a *TaskError. Tasks that never
// ran are cancelled — their closures are not invoked, and the graph is not
// resumable (the watermark has passed them). A nil return means every bound
// closure ran and returned nil.
func (g *Graph) Execute(workers int) error {
	// pick the newest ready task (LIFO): depth-first progress keeps the
	// working set warm; any pick order is correct.
	return g.execute(workers, func(ready []int) int { return len(ready) - 1 }, nil)
}

// ExecuteAdversarial replays the graph like Execute but deliberately seeks
// out the *worst-case legal orders*: among ready tasks it usually picks the
// latest-issued one (reverse tie-breaking maximally reorders independent
// tasks relative to record order) and otherwise a seeded-random one, and it
// injects microsecond-scale start delays so independent closures overlap in
// wall-clock time. Run under `go test -race`, this turns the executor's
// ordering rules into something the race detector actually exercises — a
// missing fence or dependency edge that serial replay (and lucky parallel
// replays) mask becomes a detectable race or a parity failure. Results
// remain bit-identical to Execute for a correctly ordered graph, and
// failures surface exactly as from Execute.
func (g *Graph) ExecuteAdversarial(workers int, seed int64) error {
	r := rng.NewRNG(seed)
	pick := func(ready []int) int {
		if r.Intn(4) == 0 {
			return r.Intn(len(ready))
		}
		// Latest-issued first: reverse of record order among the ready set.
		best := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] > ready[best] {
				best = i
			}
		}
		return best
	}
	delay := func() time.Duration {
		if r.Intn(2) == 0 {
			return time.Duration(r.Intn(120)) * time.Microsecond
		}
		return 0
	}
	return g.execute(workers, pick, delay)
}

// ExecObserver brackets replayed closures; see Graph.Observer.
type ExecObserver interface {
	Before(t *Task)
	After(t *Task)
}

// Stamp is when a replayed task ran, in monotonic nanoseconds from its
// graph's origin: Start before the observer's Before and the fault hook,
// End after the observer's After, both taken on the task's worker. The
// origin lies one nanosecond before the graph's first replay, so a task that
// ran has End > 0, and the zero Stamp is a task that never ran (unbound,
// cancelled, or not replayed yet). A task's Start precedes its End, and a
// successor's Start follows its predecessor's End, on a clock finer than a
// closure: the Linux monotonic clock counts nanoseconds.
type Stamp struct{ Start, End int64 }

// execute is the shared replay core: pick selects which ready task to
// issue next (index into the ready slice), delay (optional) yields a start
// delay injected before the task's closure runs on its worker.
func (g *Graph) execute(workers int, pick func(ready []int) int, delay func() time.Duration) error {
	if g.bound == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if g.Observer != nil {
		// Observers see buffers exclusively around each closure (san's
		// shadow) or append without a lock (the benchmark's span recorder);
		// any serial topological order is a valid reference order.
		workers = 1
	}
	n := len(g.Tasks)
	start := g.executed
	g.executed = n
	if start == n {
		return nil
	}
	if g.origin.IsZero() {
		g.origin = time.Now().Add(-time.Nanosecond)
	}
	g.Stamps = append(g.Stamps, make([]Stamp, n-len(g.Stamps))...)

	// Tasks before the watermark already ran and count as done. A task that
	// precedes another through several edges (a dep that is also its FIFO
	// predecessor, a fence spanning two devices) is counted once per edge
	// and released once per edge.
	predsLeft := make([]int, n)
	successors := make([][]int, n)
	for i, preds := range g.Predecessors(ExecutorEdges)[start:] {
		for _, p := range preds {
			if p >= start {
				predsLeft[start+i]++
				successors[p] = append(successors[p], start+i)
			}
		}
	}

	var ready []int
	for i := start; i < n; i++ {
		if predsLeft[i] == 0 {
			ready = append(ready, i)
		}
	}
	finished := start
	complete := func(id int) {
		finished++
		for _, succ := range successors[id] {
			if predsLeft[succ]--; predsLeft[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}

	type result struct {
		id  int
		err error
	}
	doneCh := make(chan result, n)
	pool.Grow(workers)
	inFlight := 0
	obs := g.Observer
	hook := g.Fault
	origin, stamps := g.origin, g.Stamps
	var firstErr error
	for {
		if firstErr == nil {
			for len(ready) > 0 && inFlight < workers {
				k := pick(ready)
				id := ready[k]
				ready[k] = ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				t := g.Tasks[id]
				if t.Exec == nil {
					complete(id)
					continue
				}
				inFlight++
				fn, tid, task := t.Exec, id, t
				var d time.Duration
				if delay != nil {
					d = delay()
				}
				pool.Submit(func() {
					if d > 0 {
						time.Sleep(d)
					}
					stamps[tid].Start = int64(time.Since(origin))
					if obs != nil {
						obs.Before(task)
					}
					var err error
					if hook != nil {
						err = beforeTask(g, hook, task)
					}
					if err == nil {
						err = fn()
						if err == nil && hook != nil {
							err = hook.AfterTask(g, task)
						}
					}
					// The observer's After always runs, even for failed
					// tasks: the shadow replay must restore its poison
					// before the executor hands buffers to recovery code.
					if obs != nil {
						obs.After(task)
					}
					stamps[tid].End = int64(time.Since(origin))
					doneCh <- result{tid, err}
				})
			}
			if finished == n {
				return nil
			}
			if inFlight == 0 {
				// Unreachable for graphs built through add(): deps point
				// backward and FIFO/fence edges follow issue order.
				panic(fmt.Sprintf("sim: executor stalled with %d/%d tasks finished", finished, n))
			}
		} else if inFlight == 0 {
			// Cancelled: everything in flight drained, the rest never ran.
			return firstErr
		}
		r := <-doneCh
		inFlight--
		switch {
		case r.err != nil:
			if firstErr == nil {
				firstErr = taskError(g.Tasks[r.id], r.err)
			}
		case firstErr == nil:
			complete(r.id)
		}
	}
}
