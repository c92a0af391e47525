package baseline

import (
	"mggcn/internal/core"
	"mggcn/internal/sim"
)

// CAGNET returns cfg as CAGNET's 1D algorithm (Tripathy et al.; its
// best-performing variant in the paper's runs) trains it: MG-GCN's
// staged-broadcast SpMM with the paper's own optimisations switched off.
// Broadcast and compute strictly alternate on one staging buffer (no §4.3
// overlap), every layer's backward SpMM runs (no §4.4 saving at layer 0), and
// the vertices keep their natural order (no §5.2 permutation). Like every
// trainer run it aggregates at the narrower of a layer's two widths (§4.4's
// order switch), as CAGNET does. The machine is derated to CAGNET's kernels
// and collectives.
func CAGNET(cfg core.Config) core.Config {
	cfg.Spec = cagnetMachine(cfg.Spec)
	cfg.Strategy, cfg.Ordering = core.Strategy1DRow, core.OrderingNatural
	cfg.Overlap, cfg.SkipFirstBackward = false, false
	return cfg
}

// cagnetMachine derates spec to what CAGNET gets out of it: PyTorch-dispatched
// kernels at 85 % of the tuned pipeline's throughput (plus the extra tensor
// materialisations of each stage), 100 µs of framework overhead per kernel,
// and NCCL 2.4 collectives at 80 % of NCCL 2.11's bandwidth.
func cagnetMachine(spec sim.MachineSpec) sim.MachineSpec {
	spec = derated(spec, 0.85, 100e-6)
	spec.LinkBW *= 0.8
	return spec
}

// CommTime1D returns the §5.1 closed-form communication time of the 1D
// algorithm for an n x d feature matrix on the spec's 8-GPU machine:
// P broadcasts of nd/P bytes over the full group.
func CommTime1D(spec sim.MachineSpec, n, d int64) float64 {
	bytes := n * d * 4
	return float64(bytes) / spec.CollectiveBW(8)
}

// CommTime15D returns the §5.1 closed-form time of the 1.5D algorithm with
// replication factor 2: two rounds of group broadcasts of nd/4 over 4-GPU
// groups plus a reduction of nd/4 over the inter-group links (only 2 links
// on DGX-1's asymmetric topology; the full fabric behind NVSwitch).
func CommTime15D(spec sim.MachineSpec, n, d int64) float64 {
	bytes := n * d * 4
	groupBW := spec.CollectiveBW(4)
	interBW := float64(spec.GroupLinks(2)) * spec.LinkBW
	if spec.NVSwitch {
		interBW = spec.CollectiveBW(4)
	}
	return 2*float64(bytes/4)/groupBW + float64(bytes/4)/interBW
}
