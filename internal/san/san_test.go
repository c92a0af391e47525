package san

import (
	"strings"
	"testing"

	"mggcn/internal/sim"
)

// declGraph builds an empty registry-carrying graph over p devices.
func declGraph(p int) *sim.Graph {
	g := sim.NewGraph(sim.DGXV100(), p)
	g.Reg = sim.NewBufRegistry()
	return g
}

// opaque is a one-buffer access set with no extent: these graphs are checked
// for ordering only.
func opaque(id sim.BufID) []sim.ViewShape { return []sim.ViewShape{sim.OpaqueShape(id)} }

func TestCheckCleanPipeline(t *testing.T) {
	g := declGraph(2)
	hw := g.Reg.Register("d0/buf/HW")
	a := g.AddCompute(0, sim.KindGeMM, "produce", -1, 1, false)
	g.DeclareShaped(a, nil, opaque(hw))
	b := g.AddCompute(0, sim.KindSpMM, "consume", -1, 1, true, a)
	g.DeclareShaped(b, opaque(hw), nil)
	if got := Check(g, g.HappensBefore(sim.ExecutorEdges)); len(got) != 0 {
		t.Fatalf("ordered producer/consumer flagged: %v", got)
	}
	// The same pair without the dep edge and without implicit edges (the
	// consumer on another device so FIFO cannot save it) must be flagged.
	g2 := declGraph(2)
	hw2 := g2.Reg.Register("d0/buf/HW")
	a2 := g2.AddCompute(0, sim.KindGeMM, "produce", -1, 1, false)
	g2.DeclareShaped(a2, nil, opaque(hw2))
	b2 := g2.AddCompute(1, sim.KindSpMM, "consume", -1, 1, true)
	g2.DeclareShaped(b2, opaque(hw2), nil)
	got := Check(g2, g2.HappensBefore(sim.ExecutorEdges))
	if len(got) != 1 {
		t.Fatalf("unordered cross-device conflict: got %v, want 1 finding", got)
	}
	if got[0].A != a2 || got[0].B != b2 || got[0].WriteWrite {
		t.Fatalf("wrong conflict: %+v", got[0])
	}
	if !strings.Contains(got[0].String(), "d0/buf/HW") {
		t.Fatalf("conflict string lacks buffer name: %s", got[0])
	}
}

func TestCheckReadReadNotFlagged(t *testing.T) {
	g := declGraph(2)
	w := g.Reg.Register("d0/w0")
	a := g.AddCompute(0, sim.KindGeMM, "r1", -1, 1, false)
	g.DeclareShaped(a, opaque(w), nil)
	b := g.AddCompute(1, sim.KindGeMM, "r2", -1, 1, false)
	g.DeclareShaped(b, opaque(w), nil)
	if got := Check(g, g.HappensBefore(sim.ExecutorEdges)); len(got) != 0 {
		t.Fatalf("read-read pair flagged: %v", got)
	}
}

// TestCheckBCAntiDependency reconstructs the broadcast-buffer anti-
// dependency the overlap machinery must preserve: stage j's SpMM reads the
// BC buffer that stage j+1's broadcast overwrites. With the anti-dependency
// edge recorded (as stagedSpMM records prevStage deps) the graph is clean
// even on Deps alone; with the edge dropped, only the cross-stream fence
// saves it — so the fence-removed check must flag it.
func TestCheckBCAntiDependency(t *testing.T) {
	build := func(withAntiDep bool) *sim.Graph {
		g := declGraph(2)
		bc := g.Reg.Register("d1/buf/BC1")
		src0 := g.Reg.Register("d0/buf/HW")
		src1 := g.Reg.Register("d1/buf/HW")
		dst := g.Reg.Register("d1/buf/AHW0")
		bc0 := g.AddComm([]int{0, 1}, "spmm/bcast", 0, 1)
		g.DeclareShaped(bc0, opaque(src0), opaque(bc))
		spmm0 := g.AddCompute(1, sim.KindSpMM, "spmm", 0, 1, true, bc0)
		g.DeclareShaped(spmm0, opaque(bc), opaque(dst))
		deps := []int{}
		if withAntiDep {
			deps = append(deps, spmm0)
		}
		bc1 := g.AddComm([]int{0, 1}, "spmm/bcast", 1, 1, deps...)
		g.DeclareShaped(bc1, opaque(src1), opaque(bc))
		spmm1 := g.AddCompute(1, sim.KindSpMM, "spmm", 1, 1, true, bc1)
		g.DeclareShaped(spmm1, opaque(bc), opaque(dst))
		return g
	}

	check := func(g *sim.Graph, edges sim.Edges) []Conflict { return Check(g, g.HappensBefore(edges)) }
	if got := check(build(true), sim.EdgeDeps); len(got) != 0 {
		t.Fatalf("anti-dependency recorded but still flagged: %v", got)
	}
	// Without the recorded edge the executor still orders the pair (fence:
	// the second broadcast waits for device 1's latest compute task), so the
	// full check stays clean...
	if got := check(build(false), sim.ExecutorEdges); len(got) != 0 {
		t.Fatalf("fence-protected graph flagged under full edges: %v", got)
	}
	// ...but removing the fence exposes the race: broadcast 2 overwrites
	// d1/BC1 while device 1's stage-0 SpMM may still be reading it.
	got := check(build(false), sim.EdgeDeps|sim.EdgeFIFO)
	if len(got) == 0 {
		t.Fatal("removed fence not flagged")
	}
	found := false
	for _, c := range got {
		if c.Name == "d1/buf/BC1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a d1/buf/BC1 conflict, got %v", got)
	}
}

func TestCheckFIFOCredit(t *testing.T) {
	// Two same-stream same-device writers with no recorded dep: ordered by
	// FIFO, racy without it.
	g := declGraph(1)
	hw := g.Reg.Register("d0/buf/HW")
	a := g.AddCompute(0, sim.KindGeMM, "w1", -1, 1, false)
	g.DeclareShaped(a, nil, opaque(hw))
	b := g.AddCompute(0, sim.KindGeMM, "w2", -1, 1, false)
	g.DeclareShaped(b, nil, opaque(hw))
	if got := Check(g, g.HappensBefore(sim.ExecutorEdges)); len(got) != 0 {
		t.Fatalf("FIFO-ordered pair flagged: %v", got)
	}
	got := Check(g, g.HappensBefore(sim.EdgeDeps|sim.EdgeFences))
	if len(got) != 1 || !got[0].WriteWrite {
		t.Fatalf("FIFO removal not flagged as write-write: %v", got)
	}
}
