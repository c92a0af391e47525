package sim

import (
	"sync"
	"testing"
)

// advOrder replays the graph adversarially and returns completion order.
func advOrder(g *Graph, workers int, seed int64) []int {
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
	g.ExecuteAdversarial(workers, seed)
	return order
}

// chainGraph builds a diamond per device plus a collective, with counters
// that verify ordering at run time.
func adversarialFixture() (*Graph, *[]int) {
	g := NewGraph(DGXV100(), 2)
	var log []int
	rec := func(id int) func() { return func() { log = append(log, id) } }
	_ = rec
	a := g.AddCompute(0, KindGeMM, "a", -1, 1, false)
	b := g.AddCompute(1, KindGeMM, "b", -1, 1, false)
	c := g.AddComm([]int{0, 1}, "bcast", 0, 1, a, b)
	d := g.AddCompute(0, KindSpMM, "d", 0, 1, true, c)
	e := g.AddCompute(1, KindSpMM, "e", 0, 1, true, c)
	for _, id := range []int{a, b, c, d, e} {
		bindNop(g, id)
	}
	return g, &log
}

// TestAdversarialHonorsDeps: whatever order the adversarial scheduler
// picks, recorded dependencies, stream FIFO, and fences still hold — the
// serial-equivalence contract is scheduler-independent.
func TestAdversarialHonorsDeps(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		g, _ := adversarialFixture()
		order := advOrder(g, 4, seed)
		pos := make(map[int]int, len(order))
		for i, id := range order {
			pos[id] = i
		}
		if len(order) != len(g.Tasks) {
			t.Fatalf("seed %d: replayed %d of %d tasks", seed, len(order), len(g.Tasks))
		}
		for _, task := range g.Tasks {
			for _, dep := range task.Deps {
				if pos[dep] > pos[task.ID] {
					t.Fatalf("seed %d: task %d completed before its dep %d (order %v)", seed, task.ID, dep, order)
				}
			}
		}
	}
}

// TestAdversarialSerialPermutes: with workers=1 the adversarial scheduler
// must still complete every task exactly once, and across seeds it should
// produce more than one distinct legal order (otherwise it isn't
// adversarial at all).
func TestAdversarialSerialPermutes(t *testing.T) {
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		// Independent tasks on different devices: any permutation is legal.
		g := NewGraph(DGXV100(), 4)
		for dev := 0; dev < 4; dev++ {
			bindNop(g, g.AddCompute(dev, KindGeMM, "x", -1, 1, false))
		}
		order := advOrder(g, 1, seed)
		key := ""
		for _, id := range order {
			key += string(rune('a' + id))
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("adversarial scheduler produced a single order across 40 seeds: %v", distinct)
	}
}

func TestPredecessorsEdgeSets(t *testing.T) {
	g := NewGraph(DGXV100(), 2)
	a := g.AddCompute(0, KindGeMM, "a", -1, 1, false)  // d0 compute
	b := g.AddCompute(0, KindGeMM, "b", -1, 1, false)  // d0 compute: FIFO after a
	c := g.AddComm([]int{0, 1}, "bcast", 0, 1, a)      // comm: dep a, fences b on d0
	d := g.AddCompute(1, KindSpMM, "d", 0, 1, true, c) // d1 compute: dep c, fence c
	e := g.AddCompute(0, KindAdam, "e", -1, 1, true)   // d0 compute: FIFO after b, fence c

	has := func(preds []int, want int) bool {
		for _, p := range preds {
			if p == want {
				return true
			}
		}
		return false
	}

	full := g.Predecessors(ExecutorEdges)
	if !has(full[b], a) {
		t.Errorf("FIFO edge a->b missing: %v", full[b])
	}
	if !has(full[c], a) || !has(full[c], b) {
		// dep a, fence on b (latest compute on d0 at c's issue).
		t.Errorf("comm preds want {a(dep), b(fence)}, got %v", full[c])
	}
	if !has(full[d], c) {
		t.Errorf("dep c->d missing: %v", full[d])
	}
	if !has(full[e], b) || !has(full[e], c) {
		t.Errorf("e wants FIFO b and fence c, got %v", full[e])
	}

	noFences := g.Predecessors(EdgeDeps | EdgeFIFO)
	if has(noFences[c], b) {
		t.Errorf("fence edge b->c present with fences disabled: %v", noFences[c])
	}
	if !has(noFences[b], a) {
		t.Errorf("FIFO edge a->b must survive fence removal: %v", noFences[b])
	}

	depsOnly := g.Predecessors(EdgeDeps)
	if has(depsOnly[b], a) {
		t.Errorf("FIFO edge a->b present with FIFO disabled: %v", depsOnly[b])
	}
	if !has(depsOnly[c], a) {
		t.Errorf("recorded dep a->c must always be present: %v", depsOnly[c])
	}
}
