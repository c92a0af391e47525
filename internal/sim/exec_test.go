package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// execOrder replays the graph with the given parallelism and returns the
// completion order of bound tasks, recorded under a mutex.
func execOrder(g *Graph, workers int) []int {
	var mu sync.Mutex
	var order []int
	for _, t := range g.Tasks {
		if t.Exec == nil {
			continue
		}
		id := t.ID
		inner := t.Exec
		t.Exec = func() error {
			err := inner()
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return err
		}
	}
	g.Execute(workers)
	return order
}

func bindNop(g *Graph, id int) { g.BindShaped(id, nil, nil, func() {}) }

func TestExecuteRunsDepsFirst(t *testing.T) {
	g := NewGraph(DGXV100(), 2)
	var log []string
	a := g.AddCompute(0, KindGeMM, "a", -1, 1, false)
	g.BindShaped(a, nil, nil, func() { log = append(log, "a") })
	b := g.AddCompute(1, KindGeMM, "b", -1, 1, false, a)
	g.BindShaped(b, nil, nil, func() { log = append(log, "b") })
	g.Execute(1)
	if len(log) != 2 || log[0] != "a" || log[1] != "b" {
		t.Fatalf("execution order %v, want [a b]", log)
	}
}

func TestExecuteRespectsStreamFIFO(t *testing.T) {
	// Two independent (no Deps) tasks on one device's compute stream must
	// run in issue order — they model kernels accumulating into one buffer.
	g := NewGraph(DGXV100(), 1)
	first := g.AddCompute(0, KindSpMM, "s0", 0, 1, true)
	bindNop(g, first)
	second := g.AddCompute(0, KindSpMM, "s1", 1, 1, true)
	bindNop(g, second)
	for trial := 0; trial < 20; trial++ {
		g2 := NewGraph(DGXV100(), 1)
		i0 := g2.AddCompute(0, KindSpMM, "s0", 0, 1, true)
		bindNop(g2, i0)
		i1 := g2.AddCompute(0, KindSpMM, "s1", 1, 1, true)
		bindNop(g2, i1)
		order := execOrder(g2, 4)
		if len(order) != 2 || order[0] != i0 || order[1] != i1 {
			t.Fatalf("trial %d: same-stream order %v, want [%d %d]", trial, order, i0, i1)
		}
	}
}

func TestExecuteCommFence(t *testing.T) {
	// A task issued after a comm task spanning its device must wait for the
	// collective even without a recorded dep: the collective may still be
	// reading the buffer the task overwrites.
	for trial := 0; trial < 20; trial++ {
		g := NewGraph(DGXV100(), 2)
		var commDone atomic.Bool
		var violation atomic.Bool
		c := g.AddComm([]int{0, 1}, "bcast", 0, 1)
		g.BindShaped(c, nil, nil, func() { commDone.Store(true) })
		// Issued after the comm task, no Deps edge to it, other stream.
		w := g.AddCompute(0, KindGeMM, "writer", -1, 1, false)
		g.BindShaped(w, nil, nil, func() {
			if !commDone.Load() {
				violation.Store(true)
			}
		})
		g.Execute(4)
		if violation.Load() {
			t.Fatalf("trial %d: later-issued task ran before the earlier comm task finished", trial)
		}
	}
}

func TestExecuteCommWaitsForEarlierCompute(t *testing.T) {
	// The fence is symmetric: a collective writes staging buffers on every
	// device it spans, so it must wait for earlier-issued compute that may
	// still be reading them — even with no Deps edge (producer/consumer
	// chains reset at distributed-SpMM boundaries, so the first broadcast
	// of one SpMM is otherwise unordered against the previous SpMM's
	// final-stage readers on other devices).
	for trial := 0; trial < 20; trial++ {
		g := NewGraph(DGXV100(), 2)
		var readerDone atomic.Bool
		var violation atomic.Bool
		k := g.AddCompute(1, KindSpMM, "reader", 0, 1, true)
		g.BindShaped(k, nil, nil, func() { readerDone.Store(true) })
		c := g.AddComm([]int{0, 1}, "bcast", 0, 1)
		g.BindShaped(c, nil, nil, func() {
			if !readerDone.Load() {
				violation.Store(true)
			}
		})
		g.Execute(4)
		if violation.Load() {
			t.Fatalf("trial %d: collective ran before an earlier-issued compute reader finished", trial)
		}
	}
}

func TestExecuteOverlapsComputeAcrossDevices(t *testing.T) {
	// Compute tasks on different devices never fence each other — that
	// parallelism is the executor's whole payoff. Each closure announces
	// itself and waits for the other, which is only possible if both are in
	// flight; a replay that serialized the pair leaves the first waiting
	// alone, and it fails the task after a timeout instead of hanging.
	meet := func(mine, other chan struct{}) func() error {
		return func() error {
			close(mine)
			select {
			case <-other:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("the other device's task never ran alongside")
			}
		}
	}
	in0, in1 := make(chan struct{}), make(chan struct{})
	g := NewGraph(DGXV100(), 2)
	a := g.AddCompute(0, KindSpMM, "spmm0", 0, 1, true)
	g.BindShapedE(a, nil, nil, meet(in0, in1))
	b := g.AddCompute(1, KindSpMM, "spmm1", 0, 1, true)
	g.BindShapedE(b, nil, nil, meet(in1, in0))
	if err := g.Execute(2); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteRunsIndependentTasksConcurrently(t *testing.T) {
	// Tasks on different devices with no edges must be in flight together.
	const n = 4
	var (
		mu      sync.Mutex
		cur     int
		peak    int
		barrier = make(chan struct{})
	)
	g := NewGraph(DGXV100(), n)
	for d := 0; d < n; d++ {
		id := g.AddCompute(d, KindGeMM, "k", -1, 1, false)
		g.BindShaped(id, nil, nil, func() {
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			if cur == n {
				close(barrier)
			}
			mu.Unlock()
			<-barrier // every closure waits for all n to be running
			mu.Lock()
			cur--
			mu.Unlock()
		})
	}
	g.Execute(n)
	if peak != n {
		t.Fatalf("peak concurrency %d, want %d", peak, n)
	}
}

func TestExecuteStampsEveryTask(t *testing.T) {
	// A concurrent replay stamps each task it runs: the two barrier tasks'
	// intervals overlap, a successor starts after its predecessors end, and
	// an unbound task keeps the zero Stamp.
	var barrier sync.WaitGroup
	barrier.Add(2)
	meet := func() { barrier.Done(); barrier.Wait() }
	g := NewGraph(DGXV100(), 2)
	a := g.AddCompute(0, KindSpMM, "a", 0, 1, true)
	g.BindShaped(a, nil, nil, meet)
	b := g.AddCompute(1, KindSpMM, "b", 0, 1, true)
	g.BindShaped(b, nil, nil, meet)
	c := g.AddCompute(1, KindGeMM, "c", -1, 1, false, a, b)
	bindNop(g, c)
	u := g.AddCompute(0, KindGeMM, "unbound", -1, 1, false)
	if err := g.Execute(2); err != nil {
		t.Fatal(err)
	}
	st := g.Stamps
	if len(st) != len(g.Tasks) {
		t.Fatalf("%d stamps for %d tasks", len(st), len(g.Tasks))
	}
	for _, id := range []int{a, b, c} {
		if st[id].Start <= 0 || st[id].End <= st[id].Start {
			t.Errorf("task %d stamped %+v, want 0 < Start < End", id, st[id])
		}
	}
	if st[a].Start >= st[b].End || st[b].Start >= st[a].End {
		t.Errorf("barrier tasks %+v and %+v do not overlap", st[a], st[b])
	}
	if st[c].Start < max(st[a].End, st[b].End) {
		t.Errorf("c %+v started before its deps ended (%+v, %+v)", st[c], st[a], st[b])
	}
	if st[u] != (Stamp{}) {
		t.Errorf("unbound task stamped %+v", st[u])
	}

	// A later Execute stamps only its own suffix, after the first replay,
	// and a task cancelled behind a failure keeps the zero Stamp.
	first := st[c]
	f := g.AddCompute(0, KindGeMM, "fail", -1, 1, false)
	g.BindShapedE(f, nil, nil, func() error { return errors.New("down") })
	s := g.AddCompute(0, KindGeMM, "after", -1, 1, false, f)
	bindNop(g, s)
	if err := g.Execute(2); err == nil {
		t.Fatal("Execute succeeded despite a failing task")
	}
	if g.Stamps[c] != first {
		t.Errorf("the second replay restamped c: %+v, was %+v", g.Stamps[c], first)
	}
	if g.Stamps[f].Start < first.End || g.Stamps[f].End <= g.Stamps[f].Start {
		t.Errorf("failed task stamped %+v, want after %d", g.Stamps[f], first.End)
	}
	if g.Stamps[s] != (Stamp{}) {
		t.Errorf("cancelled task stamped %+v", g.Stamps[s])
	}
}

func TestExecuteSkipsUnboundTasks(t *testing.T) {
	// nil-Exec tasks complete inline and release their dependents.
	g := NewGraph(DGXV100(), 2)
	a := g.AddCompute(0, KindGeMM, "unbound", -1, 1, false)
	ran := false
	b := g.AddCompute(1, KindGeMM, "bound", -1, 1, false, a)
	g.BindShaped(b, nil, nil, func() { ran = true })
	g.Execute(2)
	if !ran {
		t.Fatal("dependent of an unbound task never ran")
	}
}

func TestExecuteNoBoundClosuresIsNoop(t *testing.T) {
	g := NewGraph(DGXV100(), 2)
	id := g.AddCompute(0, KindGeMM, "a", -1, 1, false)
	g.Execute(4)
	if g.Tasks[id].Exec != nil {
		t.Fatal("unbound task grew a closure")
	}
	if g.bound != 0 {
		t.Fatalf("bound = %d, want 0", g.bound)
	}
}

func TestExecuteIsIncremental(t *testing.T) {
	// A second Execute must not replay already-run closures: re-running an
	// all-reduce style accumulation would double-count.
	g := NewGraph(DGXV100(), 1)
	count := 0
	a := g.AddCompute(0, KindGeMM, "a", -1, 1, false)
	g.BindShaped(a, nil, nil, func() { count++ })
	g.Execute(1)
	g.Execute(1)
	if count != 1 {
		t.Fatalf("closure ran %d times across two Executes, want 1", count)
	}
	b := g.AddCompute(0, KindGeMM, "b", -1, 1, false, a)
	ran := false
	g.BindShaped(b, nil, nil, func() { ran = true })
	g.Execute(1)
	if count != 1 || !ran {
		t.Fatalf("incremental Execute: count=%d ran=%v, want 1 true", count, ran)
	}
}

func TestBindPanics(t *testing.T) {
	g := NewGraph(DGXV100(), 1)
	id := g.AddCompute(0, KindGeMM, "a", -1, 1, false)
	g.BindShaped(id, nil, nil, func() {})
	for name, fn := range map[string]func(){
		"rebind":    func() { g.BindShaped(id, nil, nil, func() {}) },
		"rebind-E":  func() { g.BindShapedE(id, nil, nil, func() error { return nil }) },
		"unknown":   func() { g.BindShaped(99, nil, nil, func() {}) },
		"unknown-E": func() { g.BindShapedE(-1, nil, nil, func() error { return nil }) },
		"nil":       func() { g.BindShaped(id, nil, nil, nil) },
		"nil-E":     func() { g.BindShapedE(g.AddCompute(0, KindGeMM, "c", -1, 1, false), nil, nil, nil) },
		"after-execute": func() {
			g.Execute(1)
			b := g.AddCompute(0, KindGeMM, "b", -1, 1, false)
			_ = b
			g.Execute(1)
			g.BindShaped(b, nil, nil, func() {})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestExecuteManyTasksStress replays a layered random-ish graph at several
// worker counts and checks every task ran exactly once with deps satisfied.
func TestExecuteManyTasksStress(t *testing.T) {
	const P, layers = 8, 30
	for _, workers := range []int{1, 2, 8, 0} {
		g := NewGraph(DGXV100(), P)
		ran := make([]atomic.Bool, P*layers+layers)
		var ids []int
		check := func(deps []int) {
			for _, d := range deps {
				if !ran[d].Load() {
					t.Errorf("task ran before dep %d", d)
				}
			}
		}
		for l := 0; l < layers; l++ {
			var layer []int
			for d := 0; d < P; d++ {
				var deps []int
				if l > 0 {
					deps = append(deps, ids[(l-1)*P+d])
				}
				id := g.AddCompute(d, KindGeMM, "k", -1, 1, false, deps...)
				depsCopy := append([]int(nil), deps...)
				me := id
				g.BindShaped(id, nil, nil, func() {
					check(depsCopy)
					ran[me].Store(true)
				})
				layer = append(layer, id)
				ids = append(ids, id)
			}
			if l%3 == 2 {
				c := g.AddComm([]int{0, 1, 2, 3}, "coll", -1, 1, layer[:4]...)
				me := c
				deps := append([]int(nil), layer[:4]...)
				g.BindShaped(c, nil, nil, func() {
					check(deps)
					ran[me].Store(true)
				})
			}
		}
		g.Execute(workers)
		for _, id := range ids {
			if !ran[id].Load() {
				t.Fatalf("workers=%d: task %d never ran", workers, id)
			}
		}
	}
}
