package san

import (
	"testing"

	"mggcn/internal/sim"
)

// shadowFixture builds a two-buffer tracked registry and a graph wired to a
// Shadow observer. Returns the graph, shadow, and the two backing slices.
func shadowFixture(t *testing.T) (*sim.Graph, *Shadow, []float32, []float32, sim.BufID, sim.BufID) {
	t.Helper()
	g := sim.NewGraph(sim.DGXV100(), 1)
	g.Reg = sim.NewBufRegistry()
	a := g.Reg.Register("d0/buf/A")
	b := g.Reg.Register("d0/buf/B")
	da := []float32{1, 2, 3, 4}
	db := []float32{5, 6, 7, 8}
	g.Reg.Track(a, da)
	g.Reg.Track(b, db)
	sh := NewShadow(g.Reg)
	g.Observer = sh
	return g, sh, da, db, a, b
}

func TestShadowCleanTask(t *testing.T) {
	g, sh, da, db, a, b := shadowFixture(t)
	id := g.AddCompute(0, sim.KindGeMM, "copy", -1, 1, false)
	g.BindShaped(id, []sim.ViewShape{sim.OpaqueShape(a)}, []sim.ViewShape{sim.OpaqueShape(b)}, func() {
		copy(db, da)
	})
	g.Execute(1)
	if len(sh.Findings) != 0 {
		t.Fatalf("clean task reported: %v", sh.Findings)
	}
	if db[0] != 1 {
		t.Fatalf("replay result lost: %v", db)
	}
}

func TestShadowUndeclaredWrite(t *testing.T) {
	g, sh, _, db, a, _ := shadowFixture(t)
	id := g.AddCompute(0, sim.KindGeMM, "sneaky", -1, 1, false)
	// Declares only A, but writes B.
	g.BindShaped(id, nil, []sim.ViewShape{sim.OpaqueShape(a)}, func() {
		db[2] = 42
	})
	g.Execute(1)
	if len(sh.Findings) != 1 || sh.Findings[0].Kind != "undeclared-write" || sh.Findings[0].Name != "d0/buf/B" {
		t.Fatalf("undeclared write not caught: %v", sh.Findings)
	}
	// The poison restore must bring B back to its pre-task values.
	if db[2] != 7 {
		t.Fatalf("poisoned buffer not restored: %v", db)
	}
}

func TestShadowUndeclaredRead(t *testing.T) {
	g, sh, da, db, _, b := shadowFixture(t)
	id := g.AddCompute(0, sim.KindGeMM, "leak", -1, 1, false)
	// Declares a write of B only, but reads A — the poison NaN propagates
	// into the declared output.
	g.BindShaped(id, nil, []sim.ViewShape{sim.OpaqueShape(b)}, func() {
		db[0] = da[0] + 1
	})
	g.Execute(1)
	found := false
	for _, f := range sh.Findings {
		if f.Kind == "undeclared-read" && f.Name == "d0/buf/B" {
			found = true
		}
	}
	if !found {
		t.Fatalf("undeclared read not caught: %v", sh.Findings)
	}
}

func TestShadowReadOnlyWritten(t *testing.T) {
	g, sh, da, _, a, _ := shadowFixture(t)
	id := g.AddCompute(0, sim.KindGeMM, "mutate", -1, 1, false)
	// Declares A read-only, then writes it.
	g.BindShaped(id, []sim.ViewShape{sim.OpaqueShape(a)}, nil, func() {
		da[1] = -1
	})
	g.Execute(1)
	if len(sh.Findings) != 1 || sh.Findings[0].Kind != "read-only-written" || sh.Findings[0].Name != "d0/buf/A" {
		t.Fatalf("read-only write not caught: %v", sh.Findings)
	}
}

func TestShadowMultiTaskPipeline(t *testing.T) {
	// Correctly declared two-task pipeline: no findings, correct result.
	g, sh, da, db, a, b := shadowFixture(t)
	p := g.AddCompute(0, sim.KindGeMM, "scale", -1, 1, false)
	g.BindShaped(p, nil, []sim.ViewShape{sim.OpaqueShape(a)}, func() {
		for i := range da {
			da[i] *= 2
		}
	})
	c := g.AddCompute(0, sim.KindSpMM, "add", -1, 1, true, p)
	g.BindShaped(c, []sim.ViewShape{sim.OpaqueShape(a)}, []sim.ViewShape{sim.OpaqueShape(b)}, func() {
		for i := range db {
			db[i] += da[i]
		}
	})
	g.Execute(4) // observer forces serial regardless
	if len(sh.Findings) != 0 {
		t.Fatalf("clean pipeline reported: %v", sh.Findings)
	}
	if da[0] != 2 || db[0] != 7 {
		t.Fatalf("pipeline arithmetic wrong: a=%v b=%v", da, db)
	}
}
