package sim

import (
	"math"
	"testing"
)

func TestSpecConstants(t *testing.T) {
	v := DGXV100()
	if v.NumGPUs != 8 || v.NVLinks != 6 || v.MemBytesPerGPU != 32<<30 {
		t.Fatalf("DGX-V100 spec wrong: %+v", v)
	}
	a := DGXA100()
	if a.NumGPUs != 8 || a.NVLinks != 12 || a.MemBytesPerGPU != 80<<30 {
		t.Fatalf("DGX-A100 spec wrong: %+v", a)
	}
	if !a.NVSwitch || v.NVSwitch {
		t.Fatalf("NVSwitch flags wrong")
	}
	// §6.3: 150 GB/s of V100's 900 GB/s feeds comm -> compute rate 5/6.
	if math.Abs(v.ContentionComputeRate-5.0/6.0) > 1e-9 {
		t.Fatalf("V100 contention rate %v, want 5/6", v.ContentionComputeRate)
	}
}

func TestGroupLinksAsymmetry(t *testing.T) {
	v := DGXV100()
	if v.GroupLinks(8) != 6 {
		t.Fatalf("full DGX-1 group: %d links, want 6", v.GroupLinks(8))
	}
	if v.GroupLinks(4) != 4 {
		t.Fatalf("half DGX-1 group: %d links, want 4", v.GroupLinks(4))
	}
	if v.GroupLinks(2) != 2 {
		t.Fatalf("DGX-1 pair: %d links, want 2", v.GroupLinks(2))
	}
	a := DGXA100()
	for _, g := range []int{2, 4, 8} {
		if a.GroupLinks(g) != 12 {
			t.Fatalf("NVSwitch group of %d: %d links, want 12", g, a.GroupLinks(g))
		}
	}
}

func TestSection51Analysis(t *testing.T) {
	// Reproduces the §5.1 closed-form comparison of the 1D and 1.5D
	// algorithms. With n*d payload and link bandwidth l:
	//   DGX-1:   1D = nd/(6l), 1.5D = nd/(4l)  -> 1D faster by 3/2
	//   DGX-A100: 1D = nd/(12l), 1.5D = nd/(16l) -> 1.5D faster by 4/3
	nd := 1e9 // any payload; ratios are scale-free
	oneD := func(s MachineSpec) float64 {
		// 8 stages, each broadcasting nd/8 over the full group.
		return 8 * (nd / 8) / s.CollectiveBW(8)
	}
	onePointFiveD := func(s MachineSpec) float64 {
		// Two rounds of group broadcasts of nd/4 over 4-GPU groups plus a
		// concurrent reduction of nd/4 over the inter-group links.
		groupBW := s.CollectiveBW(4)
		interBW := float64(s.GroupLinks(2)) * s.LinkBW
		if s.NVSwitch {
			interBW = s.CollectiveBW(4)
		}
		return 2*(nd/4)/groupBW + (nd / 4 / interBW)
	}
	v, a := DGXV100(), DGXA100()
	ratioV := onePointFiveD(v) / oneD(v)
	if math.Abs(ratioV-1.5) > 1e-9 {
		t.Fatalf("DGX-1: 1.5D/1D = %v, want 1.5 (1D wins)", ratioV)
	}
	ratioA := onePointFiveD(a) / oneD(a)
	if math.Abs(ratioA-0.75) > 1e-9 {
		t.Fatalf("DGX-A100: 1.5D/1D = %v, want 0.75 (1.5D wins)", ratioA)
	}
}

func TestNewMachineScalesMemory(t *testing.T) {
	m := NewMachine(DGXV100(), 4, 32)
	if len(m.Pools) != 4 {
		t.Fatalf("pools: %d", len(m.Pools))
	}
	want := int64(32<<30) / 32
	if m.Pools[0].capacity != want {
		t.Fatalf("capacity %d, want %d", m.Pools[0].capacity, want)
	}
}

func TestNewMachineRejectsBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { NewMachine(DGXV100(), 9, 1) },
		func() { NewMachine(DGXV100(), 0, 1) },
		func() { NewMachine(DGXV100(), 4, 0) },
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

func TestMultiNodeSpec(t *testing.T) {
	m := MultiNode(DGXV100(), 4, 12.5e9)
	if m.NumGPUs != 32 || m.Nodes != 4 || m.GPUsPerNode() != 8 {
		t.Fatalf("multi-node spec wrong: %+v", m)
	}
	if m.Name != "4x DGX-V100" {
		t.Fatalf("name %q", m.Name)
	}
	if DGXV100().GPUsPerNode() != 8 {
		t.Fatalf("single node GPUsPerNode wrong")
	}
}

func TestMultiNodeCollectiveWall(t *testing.T) {
	// Within a node: full NVLink bandwidth. Spanning nodes: one NIC.
	m := MultiNode(DGXV100(), 2, 12.5e9)
	intra := m.CollectiveBW(8)
	cross := m.CollectiveBW(16)
	if intra != 6*25e9 {
		t.Fatalf("intra-node BW %g", intra)
	}
	if cross != 12.5e9 {
		t.Fatalf("cross-node BW %g, want NIC-bound 12.5e9", cross)
	}
	if cross >= intra {
		t.Fatalf("crossing nodes must be slower")
	}
}

// TestMultiNodeRecordsBadNodeCount: the spec constructor does not panic on a
// silly cluster; it describes it, and core's config validation refuses to
// build a trainer on it (mggcn.TestNewTrainerValidation).
func TestMultiNodeRecordsBadNodeCount(t *testing.T) {
	m := MultiNode(DGXV100(), 0, 1e9)
	if m.Nodes != 0 || m.NumGPUs != 0 {
		t.Fatalf("0-node cluster recorded as %+v", m)
	}
	if m = MultiNode(DGXV100(), 2, 0); m.NumGPUs != 16 || m.InterNodeBW != 0 {
		t.Fatalf("2-node cluster without a network recorded as %+v", m)
	}
}

func TestMultiNodeMachineScalingWall(t *testing.T) {
	// Broadcast time per byte must jump by ~an order of magnitude when the
	// group grows past one node — the reason CAGNET stopped scaling at 4
	// GPUs on its cluster and the paper stayed on one machine.
	m := MultiNode(DGXV100(), 2, 12.5e9)
	b := int64(1 << 30)
	in := m.BroadcastCost(b, 8)
	out := m.BroadcastCost(b, 9)
	if out < 5*in {
		t.Fatalf("node boundary penalty too small: %g vs %g", in, out)
	}
}
