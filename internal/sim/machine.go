// Package sim provides the simulated multi-GPU machine this reproduction
// runs on: device and interconnect specifications, per-device memory pools,
// an analytic kernel cost model, and a rate-sharing discrete-event
// scheduler that turns a recorded task graph into a timeline with
// communication/computation bandwidth contention (§6.3 of the paper).
package sim

import (
	"fmt"
	"strings"
)

// MachineSpec describes one multi-GPU node. Bandwidths are bytes/second,
// compute is FLOP/s, times are seconds.
type MachineSpec struct {
	Name    string
	NumGPUs int

	MemBytesPerGPU int64   // HBM capacity per device
	MemBW          float64 // HBM bandwidth per device
	Flops          float64 // peak fp32 FLOP/s per device
	L2Bytes        int64   // last-level cache per device

	// NVLinks is the number of links per GPU usable by a full-machine
	// collective; LinkBW is the one-direction bandwidth of a single link.
	NVLinks int
	LinkBW  float64
	// NVSwitch is true when any subset of GPUs sees the full link count
	// (DGX-A100). When false (DGX-1's hybrid cube mesh) smaller groups see
	// fewer links: 4-GPU groups have 4, and the 2 cross-group links bound
	// inter-group reductions — the §5.1 analysis.
	NVSwitch bool

	// Nodes > 1 makes this a multi-node cluster of identical nodes with
	// NumGPUs total GPUs; collectives spanning nodes are bottlenecked by
	// InterNodeBW (one NIC per node), the effect that stopped CAGNET from
	// scaling past a single node and that the paper leaves as future work.
	Nodes       int
	InterNodeBW float64

	KernelLaunch float64 // fixed per-kernel overhead
	CommLatency  float64 // fixed per-collective latency

	// HostLinkBW is the host<->device link bandwidth (bytes/s, e.g. PCIe)
	// that uncached feature-extraction traffic crosses in the sampled
	// minibatch pipeline. Zero means "one NVLink's worth" (HostBW falls
	// back to LinkBW) so pre-existing specs keep working unchanged.
	HostLinkBW float64

	// ContentionComputeRate is the relative progress rate of memory-bound
	// kernels while communication is active on the same device
	// (≈ 1 − aggregate link BW / HBM BW, §6.3); ContentionCommRate is the
	// communication slowdown in the same situation.
	ContentionComputeRate float64
	ContentionCommRate    float64
}

// DGXV100 returns the NVIDIA DGX-1 (8x V100 32GB) used in §6: 6 NVLinks per
// GPU at 25 GB/s, 900 GB/s HBM, asymmetric topology.
func DGXV100() MachineSpec {
	const membw = 900e9
	const linkbw = 25e9
	const links = 6
	return MachineSpec{
		Name:           "DGX-V100",
		NumGPUs:        8,
		MemBytesPerGPU: 32 << 30,
		MemBW:          membw,
		Flops:          14e12,
		L2Bytes:        6 << 20,
		NVLinks:        links,
		LinkBW:         linkbw,
		NVSwitch:       false,
		KernelLaunch:   20e-6,
		CommLatency:    30e-6,
		// PCIe 3.0 x16: what host-resident feature rows cross on a miss.
		HostLinkBW: 12e9,
		// 150 GB/s of the 900 GB/s HBM feeds NVLink during overlap.
		ContentionComputeRate: 1 - float64(links)*linkbw/membw,
		ContentionCommRate:    0.9,
	}
}

// DGXA100 returns the NVIDIA DGX-A100 (8x A100 80GB): 12 NVLinks per GPU
// through NVSwitch, 2 TB/s HBM.
func DGXA100() MachineSpec {
	const membw = 2000e9
	const linkbw = 25e9
	const links = 12
	return MachineSpec{
		Name:           "DGX-A100",
		NumGPUs:        8,
		MemBytesPerGPU: 80 << 30,
		MemBW:          membw,
		Flops:          19.5e12,
		L2Bytes:        40 << 20,
		NVLinks:        links,
		LinkBW:         linkbw,
		NVSwitch:       true,
		KernelLaunch:   20e-6,
		CommLatency:    30e-6,
		// PCIe 4.0 x16: what host-resident feature rows cross on a miss.
		HostLinkBW:            25e9,
		ContentionComputeRate: 1 - float64(links)*linkbw/membw,
		ContentionCommRate:    0.95,
	}
}

// ParseMachine resolves a command-line machine name — the one spelling of
// the -machine flag every CLI accepts.
func ParseMachine(name string) (MachineSpec, error) {
	switch strings.ToLower(name) {
	case "v100", "dgx-1", "dgx-v100":
		return DGXV100(), nil
	case "a100", "dgx-a100":
		return DGXA100(), nil
	default:
		return MachineSpec{}, fmt.Errorf("unknown machine %q (want v100 or a100)", name)
	}
}

// GPUsPerNode returns the GPU count of one node.
func (s MachineSpec) GPUsPerNode() int {
	if s.Nodes <= 1 {
		return s.NumGPUs
	}
	return s.NumGPUs / s.Nodes
}

// MultiNode returns a cluster of nodes identical nodes joined by a network
// with interNodeBW bytes/s per node (e.g. 12.5e9 for HDR InfiniBand). The
// result has nodes x spec.NumGPUs GPUs total. It records what it is given:
// a cluster of no nodes, or one whose network moves nothing, is refused
// where a trainer is built on it.
func MultiNode(spec MachineSpec, nodes int, interNodeBW float64) MachineSpec {
	out := spec
	out.Name = fmt.Sprintf("%dx %s", nodes, spec.Name)
	out.NumGPUs = nodes * spec.NumGPUs
	out.Nodes = nodes
	out.InterNodeBW = interNodeBW
	return out
}

// HostBW returns the host<->device link bandwidth feature-extraction
// misses cross: HostLinkBW when the spec sets it, else one link's worth.
func (s MachineSpec) HostBW() float64 {
	if s.HostLinkBW > 0 {
		return s.HostLinkBW
	}
	return s.LinkBW
}

// GroupLinks returns the NVLink count available to a collective spanning
// groupSize of the machine's GPUs. On NVSwitch machines every group sees
// the full fabric; on DGX-1 a 4-GPU group has 4 links and the two halves
// are joined by only 2 (§5.1).
func (s MachineSpec) GroupLinks(groupSize int) int {
	if groupSize < 2 {
		return s.NVLinks
	}
	if s.NVSwitch {
		return s.NVLinks
	}
	switch {
	case groupSize > 4:
		return s.NVLinks
	case groupSize > 2:
		return 4
	default:
		return 2
	}
}

// CollectiveBW returns the aggregate bandwidth (bytes/s) a broadcast or
// reduction over groupSize GPUs achieves: links x per-link bandwidth
// within one node; the inter-node NIC bandwidth once the group spans
// nodes (the multi-node scaling wall).
func (s MachineSpec) CollectiveBW(groupSize int) float64 {
	if s.Nodes > 1 && groupSize > s.GPUsPerNode() {
		return s.InterNodeBW
	}
	return float64(s.GroupLinks(groupSize)) * s.LinkBW
}

// Machine is a simulated instance of a spec: a subset of its GPUs plus a
// memory scale divisor matching the dataset scale (DESIGN.md §2) so that
// scaled-down datasets hit the same OOM boundaries as full-scale runs.
type Machine struct {
	Spec     MachineSpec
	P        int // number of GPUs in use
	MemScale int
	Pools    []*Pool
}

// NewMachine builds a machine using p GPUs of the spec with per-device
// memory capacity Spec.MemBytesPerGPU / memScale.
func NewMachine(spec MachineSpec, p, memScale int) *Machine {
	if p < 1 || p > spec.NumGPUs {
		panic(fmt.Sprintf("sim: %d GPUs requested, %s has %d", p, spec.Name, spec.NumGPUs))
	}
	if memScale < 1 {
		panic(fmt.Sprintf("sim: memScale %d < 1", memScale))
	}
	m := &Machine{Spec: spec, P: p, MemScale: memScale}
	capacity := spec.MemBytesPerGPU / int64(memScale)
	for d := 0; d < p; d++ {
		m.Pools = append(m.Pools, NewPool(fmt.Sprintf("%s/gpu%d", spec.Name, d), capacity))
	}
	return m
}
