package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// testSpec is a spec with round numbers for hand-computable schedules.
func testSpec() MachineSpec {
	return MachineSpec{
		Name: "test", NumGPUs: 8,
		MemBytesPerGPU: 1 << 30, MemBW: 1e9, Flops: 1e9, L2Bytes: 1 << 20,
		NVLinks: 4, LinkBW: 1e9, NVSwitch: true,
		ContentionComputeRate: 0.5, ContentionCommRate: 1.0,
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewGraph(testSpec(), 2)
	s := g.Run()
	if s.Makespan != 0 {
		t.Fatalf("empty makespan %v", s.Makespan)
	}
}

func TestSequentialTasksOnOneStream(t *testing.T) {
	g := NewGraph(testSpec(), 1)
	a := g.AddCompute(0, KindGeMM, "a", -1, 1.0, false)
	b := g.AddCompute(0, KindGeMM, "b", -1, 2.0, false)
	s := g.Run()
	if s.Start[a] != 0 || s.End[a] != 1 {
		t.Fatalf("a: [%v,%v]", s.Start[a], s.End[a])
	}
	// FIFO: b waits for a even without an explicit dependency.
	if s.Start[b] != 1 || s.End[b] != 3 {
		t.Fatalf("b: [%v,%v]", s.Start[b], s.End[b])
	}
	if s.Makespan != 3 {
		t.Fatalf("makespan %v", s.Makespan)
	}
}

func TestIndependentDevicesRunInParallel(t *testing.T) {
	g := NewGraph(testSpec(), 2)
	g.AddCompute(0, KindGeMM, "a", -1, 2.0, false)
	g.AddCompute(1, KindGeMM, "b", -1, 3.0, false)
	s := g.Run()
	if s.Makespan != 3 {
		t.Fatalf("parallel makespan %v, want 3", s.Makespan)
	}
}

func TestDependencyOrdering(t *testing.T) {
	g := NewGraph(testSpec(), 2)
	a := g.AddCompute(0, KindGeMM, "a", -1, 2.0, false)
	b := g.AddCompute(1, KindSpMM, "b", -1, 1.0, false, a)
	s := g.Run()
	if s.Start[b] != 2 {
		t.Fatalf("dependent started at %v, want 2", s.Start[b])
	}
	if s.Makespan != 3 {
		t.Fatalf("makespan %v", s.Makespan)
	}
}

func TestCollectiveGatesOnAllDevices(t *testing.T) {
	g := NewGraph(testSpec(), 2)
	a := g.AddCompute(0, KindGeMM, "slow", -1, 5.0, false)
	// The collective depends on device 0's slow kernel; device 1 idles.
	c := g.AddComm([]int{0, 1}, "bcast", 0, 1.0, a)
	after := g.AddCompute(1, KindSpMM, "after", -1, 1.0, false, c)
	s := g.Run()
	if s.Start[c] != 5 || s.End[c] != 6 {
		t.Fatalf("collective [%v,%v], want [5,6]", s.Start[c], s.End[c])
	}
	if s.End[after] != 7 {
		t.Fatalf("follow-up end %v, want 7", s.End[after])
	}
}

func TestCommStreamIndependentOfCompute(t *testing.T) {
	// Comm and compute streams on one device overlap when independent.
	g := NewGraph(testSpec(), 2)
	g.AddCompute(0, KindGeMM, "k", -1, 2.0, false) // not mem-bound: no contention
	g.AddComm([]int{0, 1}, "c", 0, 2.0)
	s := g.Run()
	if s.Makespan != 2 {
		t.Fatalf("makespan %v, want full overlap at 2", s.Makespan)
	}
}

func TestContentionSlowsMemBoundCompute(t *testing.T) {
	// Spec has ContentionComputeRate 0.5: a 2s mem-bound kernel under a
	// long-running comm takes 4s.
	g := NewGraph(testSpec(), 2)
	g.AddComm([]int{0, 1}, "c", 0, 10.0)
	k := g.AddCompute(0, KindSpMM, "k", -1, 2.0, true)
	s := g.Run()
	if math.Abs(s.End[k]-4.0) > 1e-9 {
		t.Fatalf("contended kernel end %v, want 4", s.End[k])
	}
}

func TestContentionEndsWithComm(t *testing.T) {
	// Comm finishes at t=1; kernel runs at half rate until then, full rate
	// after: 1s elapsed consumes 0.5 work, remaining 1.5 at rate 1 -> 2.5.
	g := NewGraph(testSpec(), 2)
	g.AddComm([]int{0, 1}, "c", 0, 1.0)
	k := g.AddCompute(0, KindSpMM, "k", -1, 2.0, true)
	s := g.Run()
	if math.Abs(s.End[k]-2.5) > 1e-9 {
		t.Fatalf("kernel end %v, want 2.5", s.End[k])
	}
}

func TestNonMemBoundComputeUnaffectedByComm(t *testing.T) {
	g := NewGraph(testSpec(), 2)
	g.AddComm([]int{0, 1}, "c", 0, 10.0)
	k := g.AddCompute(0, KindGeMM, "k", -1, 2.0, false)
	s := g.Run()
	if math.Abs(s.End[k]-2.0) > 1e-9 {
		t.Fatalf("compute-bound kernel end %v, want 2", s.End[k])
	}
}

func TestCommSlowedByCompute(t *testing.T) {
	spec := testSpec()
	spec.ContentionCommRate = 0.5
	g := NewGraph(spec, 1)
	g.AddCompute(0, KindSpMM, "k", -1, 10.0, true)
	c := g.AddComm([]int{0}, "c", 0, 1.0)
	s := g.Run()
	// Both slowed: comm at 0.5 while mem-bound compute active -> 2s.
	if math.Abs(s.End[c]-2.0) > 1e-9 {
		t.Fatalf("contended comm end %v, want 2", s.End[c])
	}
}

func TestKindBusyAccounting(t *testing.T) {
	g := NewGraph(testSpec(), 2)
	g.AddCompute(0, KindSpMM, "s", -1, 1.0, false)
	g.AddCompute(1, KindGeMM, "g", -1, 2.0, false)
	g.AddComm([]int{0, 1}, "c", 0, 3.0)
	s := g.Run()
	if s.KindBusy[KindSpMM] != 1 || s.KindBusy[KindGeMM] != 2 {
		t.Fatalf("kind busy wrong: %+v", s.KindBusy)
	}
	// Collective spans 2 devices: counted twice (per-GPU attribution).
	if s.KindBusy[KindComm] != 6 {
		t.Fatalf("comm busy %v, want 6", s.KindBusy[KindComm])
	}
}

func TestDeviceBusy(t *testing.T) {
	g := NewGraph(testSpec(), 2)
	g.AddCompute(0, KindGeMM, "a", -1, 2.0, false)
	g.AddComm([]int{0, 1}, "c", 0, 1.0)
	s := g.Run()
	if s.DeviceBusy[0][StreamCompute] != 2 {
		t.Fatalf("dev0 compute busy %v", s.DeviceBusy[0][StreamCompute])
	}
	if s.DeviceBusy[1][StreamComm] != 1 {
		t.Fatalf("dev1 comm busy %v", s.DeviceBusy[1][StreamComm])
	}
}

func TestMakespanAtLeastCriticalPath(t *testing.T) {
	check := func(seed int64) bool {
		// Random DAG: layered tasks with random deps; makespan must be >=
		// the dependency-only lower bound and >= per-stream sums.
		rng := newTestRand(seed)
		g := NewGraph(testSpec(), 4)
		var ids []int
		for i := 0; i < 30; i++ {
			dev := rng.intn(4)
			var deps []int
			if len(ids) > 0 && rng.intn(2) == 0 {
				deps = append(deps, ids[rng.intn(len(ids))])
			}
			dur := float64(rng.intn(5)+1) * 0.1
			if rng.intn(4) == 0 {
				other := (dev + 1) % 4
				ids = append(ids, g.AddComm([]int{dev, other}, "c", -1, dur, deps...))
			} else {
				ids = append(ids, g.AddCompute(dev, KindGeMM, "k", -1, dur, rng.intn(2) == 0, deps...))
			}
		}
		s := g.Run()
		if s.Makespan < g.criticalPathLowerBound()-1e-9 {
			return false
		}
		// No task starts before its deps end; end-start >= nominal.
		for i, task := range g.Tasks {
			for _, d := range task.Deps {
				if s.Start[i] < s.End[d]-1e-9 {
					return false
				}
			}
			if s.End[i]-s.Start[i] < task.Seconds-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamFIFOPreserved(t *testing.T) {
	g := NewGraph(testSpec(), 1)
	var ids []int
	for i := 0; i < 5; i++ {
		ids = append(ids, g.AddCompute(0, KindGeMM, "k", -1, 0.5, false))
	}
	s := g.Run()
	for i := 1; i < len(ids); i++ {
		if s.Start[ids[i]] < s.End[ids[i-1]]-1e-9 {
			t.Fatalf("FIFO violated between %d and %d", i-1, i)
		}
	}
}

func TestBadTaskPanics(t *testing.T) {
	g := NewGraph(testSpec(), 1)
	for _, f := range []func(){
		func() { g.AddCompute(1, KindGeMM, "x", -1, 1, false) },    // bad device
		func() { g.AddCompute(0, KindGeMM, "x", -1, 1, false, 7) }, // bad dep
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestZeroDurationTasks(t *testing.T) {
	g := NewGraph(testSpec(), 1)
	a := g.AddCompute(0, KindGeMM, "zero", -1, 0, false)
	b := g.AddCompute(0, KindGeMM, "after", -1, 1, false, a)
	s := g.Run()
	if s.End[a] != 0 || s.End[b] != 1 {
		t.Fatalf("zero-duration handling wrong: %v %v", s.End[a], s.End[b])
	}
}

// newTestRand is a tiny deterministic generator to keep the quick-check
// closure self-contained.
type testRand struct{ state uint64 }

func newTestRand(seed int64) *testRand {
	return &testRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *testRand) intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

func TestSchedulerSubgroupCollectivesFuzz(t *testing.T) {
	// Random graphs mixing compute tasks and collectives over random
	// device subsets (issued in a consistent global order, as the builders
	// do) must always complete, respect dependencies, and never beat the
	// critical path.
	check := func(seed int64) bool {
		rng := newTestRand(seed)
		p := rng.intn(6) + 2
		g := NewGraph(testSpec(), p)
		var ids []int
		for i := 0; i < 40; i++ {
			dur := float64(rng.intn(4)+1) * 0.05
			var deps []int
			if len(ids) > 0 && rng.intn(3) == 0 {
				deps = append(deps, ids[rng.intn(len(ids))])
			}
			if rng.intn(3) == 0 {
				// Collective over a random contiguous device range.
				lo := rng.intn(p)
				hi := lo + rng.intn(p-lo) + 1
				devs := make([]int, 0, hi-lo)
				for d := lo; d < hi; d++ {
					devs = append(devs, d)
				}
				ids = append(ids, g.AddComm(devs, "c", -1, dur, deps...))
			} else {
				kind := KindGeMM
				memBound := rng.intn(2) == 0
				if memBound {
					kind = KindSpMM
				}
				ids = append(ids, g.AddCompute(rng.intn(p), kind, "k", -1, dur, memBound, deps...))
			}
		}
		s := g.Run()
		if s.Makespan < g.criticalPathLowerBound()-1e-9 {
			return false
		}
		for i, task := range g.Tasks {
			if s.End[i] < s.Start[i] {
				return false
			}
			for _, d := range task.Deps {
				if s.Start[i] < s.End[d]-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// criticalPathLowerBound returns the dependency-only lower bound on the
// makespan (ignoring stream serialization and contention); the scheduler's
// makespan can never be below it.
func (g *Graph) criticalPathLowerBound() float64 {
	finish := make([]float64, len(g.Tasks))
	var best float64
	for i, t := range g.Tasks { // tasks are in issue order; deps point backward
		var start float64
		for _, d := range t.Deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[i] = start + t.Seconds
		if finish[i] > best {
			best = finish[i]
		}
	}
	return best
}
