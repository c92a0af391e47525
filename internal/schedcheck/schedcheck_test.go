package schedcheck

import (
	"strings"
	"testing"

	"mggcn/internal/sim"
)

func hasFinding(fs []Finding, check, substr string) bool {
	for _, f := range fs {
		if f.Check == check && strings.Contains(f.Msg, substr) {
			return true
		}
	}
	return false
}

func annotate(g *sim.Graph, id int, op sim.CollOp, root int, group []int, rows, cols int) {
	g.AnnotateCollective(id, &sim.Collective{Op: op, Root: root, Group: group, Rows: rows, Cols: cols, Scale: 1})
}

// The mis-ordered fixture: two broadcasts on overlapping but different
// communicators ({0,1} and {0,2}) with no ordering edge between them. On
// hardware device 0 can enter either first while 1 and 2 wait — a hang.
func TestMisorderedOverlappingCollectivesRejected(t *testing.T) {
	g := sim.NewGraph(sim.DGXV100(), 3)
	a := g.AddComm([]int{0, 1}, "bcast-a", -1, 1e-6)
	annotate(g, a, sim.CollBroadcast, 0, []int{0, 1}, 4, 4)
	b := g.AddComm([]int{0, 2}, "bcast-b", -1, 1e-6)
	annotate(g, b, sim.CollBroadcast, 0, []int{0, 2}, 4, 4)

	fs := CheckCollectives(g)
	if !hasFinding(fs, "collective", "unordered against overlapping collective") {
		t.Fatalf("unordered overlapping collectives not flagged: %v", fs)
	}

	// The same pair with a dependency edge is fine.
	g2 := sim.NewGraph(sim.DGXV100(), 3)
	a2 := g2.AddComm([]int{0, 1}, "bcast-a", -1, 1e-6)
	annotate(g2, a2, sim.CollBroadcast, 0, []int{0, 1}, 4, 4)
	b2 := g2.AddComm([]int{0, 2}, "bcast-b", -1, 1e-6, a2)
	annotate(g2, b2, sim.CollBroadcast, 0, []int{0, 2}, 4, 4)
	if fs := CheckCollectives(g2); len(fs) != 0 {
		t.Fatalf("ordered pair flagged: %v", fs)
	}
}

// An ordering path through compute tasks (dep into a kernel, fence out of
// it) must be credited — this is exactly how the 1.5D schedule orders its
// cross-group all-reduce against the next sub-group broadcast.
func TestOrderingThroughComputeAndFences(t *testing.T) {
	g := sim.NewGraph(sim.DGXV100(), 3)
	a := g.AddComm([]int{0, 1}, "ar", -1, 1e-6)
	annotate(g, a, sim.CollAllReduce, -1, []int{0, 1}, 4, 4)
	k := g.AddCompute(0, sim.KindGeMM, "k", -1, 1e-6, false, a)
	b := g.AddComm([]int{0, 2}, "bc", -1, 1e-6, k)
	annotate(g, b, sim.CollBroadcast, 0, []int{0, 2}, 4, 4)
	if fs := CheckCollectives(g); len(fs) != 0 {
		t.Fatalf("dep-kernel-dep chain not credited: %v", fs)
	}

	// Fence edge: the kernel on device 0 is issued after a, so b (comm on
	// device 0) fences on it even without a recorded dep.
	g2 := sim.NewGraph(sim.DGXV100(), 3)
	a2 := g2.AddComm([]int{0, 1}, "ar", -1, 1e-6)
	annotate(g2, a2, sim.CollAllReduce, -1, []int{0, 1}, 4, 4)
	g2.AddCompute(0, sim.KindGeMM, "k", -1, 1e-6, false, a2)
	b2 := g2.AddComm([]int{0, 2}, "bc", -1, 1e-6)
	annotate(g2, b2, sim.CollBroadcast, 0, []int{0, 2}, 4, 4)
	if fs := CheckCollectives(g2); len(fs) != 0 {
		t.Fatalf("fence chain not credited: %v", fs)
	}
}

// Same-communicator collectives follow consistent SPMD program order on
// every rank; raw record order is enough, no finding.
func TestSameGroupSequenceExempt(t *testing.T) {
	g := sim.NewGraph(sim.DGXV100(), 2)
	for i := 0; i < 3; i++ {
		id := g.AddComm([]int{0, 1}, "bc", -1, 1e-6)
		annotate(g, id, sim.CollBroadcast, 0, []int{0, 1}, 4, 4)
	}
	if fs := CheckCollectives(g); len(fs) != 0 {
		t.Fatalf("same-group sequence flagged: %v", fs)
	}
}

// The same-communicator comm-FIFO chain must link ACROSS interleaved
// different-group collectives: a {0,1} pair ordered around an (ordered)
// {0,2} collective still orders the {0,1} pair with each other, and the
// chain transitively orders the middle collective against both.
func TestSameGroupChainLinksAcrossInterleaving(t *testing.T) {
	g := sim.NewGraph(sim.DGXV100(), 3)
	a := g.AddComm([]int{0, 1}, "bc-a", -1, 1e-6)
	annotate(g, a, sim.CollBroadcast, 0, []int{0, 1}, 4, 4)
	mid := g.AddComm([]int{0, 2}, "bc-mid", -1, 1e-6, a)
	annotate(g, mid, sim.CollBroadcast, 0, []int{0, 2}, 4, 4)
	b := g.AddComm([]int{0, 1}, "bc-b", -1, 1e-6, mid)
	annotate(g, b, sim.CollBroadcast, 0, []int{0, 1}, 4, 4)
	if fs := CheckCollectives(g); len(fs) != 0 {
		t.Fatalf("interleaved but ordered schedule flagged: %v", fs)
	}
}

func TestAnnotationWellFormedness(t *testing.T) {
	g := sim.NewGraph(sim.DGXV100(), 4)
	// Missing annotation.
	g.AddComm([]int{0, 1}, "raw", -1, 1e-6)
	// Group disagrees with spanned devices.
	id := g.AddComm([]int{0, 1}, "bad-group", -1, 1e-6)
	annotate(g, id, sim.CollBroadcast, 0, []int{0, 2}, 4, 4)
	// Root outside the group.
	id = g.AddComm([]int{0, 1}, "bad-root", -1, 1e-6)
	annotate(g, id, sim.CollBroadcast, 3, []int{0, 1}, 4, 4)
	// Rootless op carrying a root.
	id = g.AddComm([]int{0, 1}, "rooted-ar", -1, 1e-6)
	annotate(g, id, sim.CollAllReduce, 0, []int{0, 1}, 4, 4)

	fs := CheckCollectives(g)
	for _, want := range []string{"no collective annotation", "does not match the devices", "is not a member", "carries root"} {
		if !hasFinding(fs, "collective", want) {
			t.Fatalf("missing finding %q in %v", want, fs)
		}
	}
}

// The mis-shaped fixture: a GeMM whose output cannot be derived from its
// inputs, an SpMM with disagreeing dense widths, and a slab read at a
// different extent than its last write (the 1.5D aliasing bug class).
func TestMisshapedBindsRejected(t *testing.T) {
	g := sim.NewGraph(sim.DGXV100(), 1)
	reg := sim.NewBufRegistry()
	g.Reg = reg
	slab := reg.Register("d0/slab")
	reg.SetCapacity(slab, 1024)
	a := reg.Register("d0/a")
	reg.SetShape(a, 4, 3)
	b := reg.Register("d0/b")
	reg.SetShape(b, 5, 2)

	// GeMM: 4x3 by 5x2 can produce nothing of shape 4x2 under NN/TA/TB.
	id := g.AddCompute(0, sim.KindGeMM, "bad-gemm", -1, 1e-6, false)
	g.DeclareShaped(id,
		[]sim.ViewShape{{Buf: a, Rows: 4, Cols: 3}, {Buf: b, Rows: 5, Cols: 2}},
		[]sim.ViewShape{{Buf: slab, Rows: 4, Cols: 2}})

	// SpMM: dense operands must share the width.
	id = g.AddCompute(0, sim.KindSpMM, "bad-spmm", -1, 1e-6, true)
	g.DeclareShaped(id,
		[]sim.ViewShape{{Buf: a, Rows: 4, Cols: 3}},
		[]sim.ViewShape{{Buf: slab, Rows: 8, Cols: 5}})

	// Aliasing: write the slab 8x5, read it back 5x8.
	id = g.AddCompute(0, sim.KindActivation, "aliased-read", -1, 1e-6, true)
	g.DeclareShaped(id, []sim.ViewShape{{Buf: slab, Rows: 5, Cols: 8}}, nil)

	// Capacity: 40x30 = 1200 > 1024.
	id = g.AddCompute(0, sim.KindLoss, "oversized", -1, 1e-6, true)
	g.DeclareShaped(id, nil, []sim.ViewShape{{Buf: slab, Rows: 40, Cols: 30}})

	// Whole-matrix buffer accessed off its declared extent.
	id = g.AddCompute(0, sim.KindActivation, "wrong-dims", -1, 1e-6, true)
	g.DeclareShaped(id, []sim.ViewShape{{Buf: a, Rows: 3, Cols: 4}}, nil)

	fs := CheckShapes(g)
	for _, want := range []string{"not derivable", "disagree on dense width", "last written at", "capacity", "declared 4x3"} {
		if !hasFinding(fs, "shape", want) {
			t.Fatalf("missing shape finding %q in %v", want, fs)
		}
	}
}

func TestShapedCommPayloadChecked(t *testing.T) {
	g := sim.NewGraph(sim.DGXV100(), 2)
	reg := sim.NewBufRegistry()
	g.Reg = reg
	a := reg.Register("d0/a")
	reg.SetShape(a, 4, 4)
	id := g.AddComm([]int{0, 1}, "bc", -1, 1e-6)
	annotate(g, id, sim.CollBroadcast, 0, []int{0, 1}, 8, 8)
	g.DeclareShaped(id, []sim.ViewShape{{Buf: a, Rows: 4, Cols: 4}}, nil)
	if fs := CheckShapes(g); !hasFinding(fs, "shape", "annotated payload") {
		t.Fatalf("payload mismatch not flagged: %v", fs)
	}
}

func TestOpaqueShapesSkipped(t *testing.T) {
	g := sim.NewGraph(sim.DGXV100(), 1)
	reg := sim.NewBufRegistry()
	g.Reg = reg
	alpha := reg.Register("alpha")
	x := reg.Register("x")
	reg.SetShape(x, 4, 4)
	id := g.AddCompute(0, sim.KindSpMM, "spmm", -1, 1e-6, true)
	g.DeclareShaped(id,
		[]sim.ViewShape{sim.OpaqueShape(alpha), {Buf: x, Rows: 4, Cols: 4}},
		[]sim.ViewShape{{Buf: x, Rows: 4, Cols: 4}})
	if fs := CheckShapes(g); len(fs) != 0 {
		t.Fatalf("opaque entry participated in typing: %v", fs)
	}
}

func TestCertifyVolumeMismatch(t *testing.T) {
	g := sim.NewGraph(sim.DGXV100(), 2)
	id := g.AddComm([]int{0, 1}, "bc", -1, 1e-6)
	annotate(g, id, sim.CollBroadcast, 0, []int{0, 1}, 4, 4) // 16 words
	model := Model{N: 4, P: 2, S: 1, Dims: []int{4, 4}}
	want := map[sim.CollOp]int64{sim.CollBroadcast: 20}
	fs := CertifyVolume(g, want, model)
	if !hasFinding(fs, "cost", "schedule moves 16 words, closed form gives 20 at N=4 P=2 S=1 dims [4 4]") {
		t.Fatalf("volume mismatch not flagged with its inputs: %v", fs)
	}
	want[sim.CollBroadcast] = 16
	if fs := CertifyVolume(g, want, model); len(fs) != 0 {
		t.Fatalf("exact volume flagged: %v", fs)
	}
}

func TestVolumeFormRegistry(t *testing.T) {
	model := Model{N: 61, P: 4, S: 1, Dims: []int{12, 16, 4}}
	for _, name := range []string{"1d-row", "1d-col", "1.5d"} {
		if vol, err := VolumeForm(name, model); err != nil || len(vol) == 0 {
			t.Fatalf("strategy %q has no volume form: %v, %v", name, vol, err)
		}
	}
}

// TestExprEvalErrors pins the two ways evaluating a closed form fails: a
// strategy with no form, and the exactness contract — a form whose division
// would not be exact (1.5D's replication factor 2 at odd P) is an error,
// never a rounded volume.
func TestExprEvalErrors(t *testing.T) {
	model := Model{N: 61, S: 1, Dims: []int{12, 16, 4}}
	for _, tc := range []struct {
		name string
		p    int
		want string
	}{
		{"no-such-strategy", 4, "no volume form"},
		{"1.5d", 3, "does not divide P = 3"},
	} {
		model.P = tc.p
		if _, err := VolumeForm(tc.name, model); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s at P=%d: error = %v, want one containing %q", tc.name, tc.p, err, tc.want)
		}
	}
}
