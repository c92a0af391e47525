package memcheck

import (
	"fmt"

	"mggcn/internal/gen"
	"mggcn/internal/nn"
	"mggcn/internal/schedcheck"
	"mggcn/internal/sim"
)

// DeviceEnv binds the full-batch atoms for one concrete device: its row
// count, the global maximum tile row count, its adjacency-tile bytes, and
// the layer widths. Feed it a trainer's DeviceRows / MaxTileRows /
// AdjacencyBytes accessors to certify a built trainer, or analytic values
// (AnalyticDeviceEnv) to certify a machine fit without building one.
func DeviceEnv(rows, tileRows, adjBytes int64, dims []int) schedcheck.Env {
	env := schedcheck.Env{"R": rows, "T": tileRows, "A": adjBytes}
	bindDims(env, dims)
	return env
}

// SampledEnv binds the sampled-pipeline atoms: the frontier capacities per
// hop (outermost first, len L+1), the feature-cache row count, and the
// layer widths.
func SampledEnv(caps []int, cacheRows int, dims []int) schedcheck.Env {
	env := schedcheck.Env{"C": int64(cacheRows)}
	for h, c := range caps {
		env[fmt.Sprintf("V%d", h)] = int64(c)
	}
	bindDims(env, dims)
	return env
}

// CagnetEnv binds the CAGNET baseline's atoms: the per-device row count and
// nonzero share at full scale, plus the layer widths.
func CagnetEnv(rows, nnzShare int64, dims []int) schedcheck.Env {
	env := schedcheck.Env{"R": rows, "Z": nnzShare}
	bindDims(env, dims)
	return env
}

func bindDims(env schedcheck.Env, dims []int) {
	for l, d := range dims {
		env[fmt.Sprintf("F%d", l)] = int64(d)
	}
}

// AnalyticAdjacencyBytes estimates one device's adjacency-tile bytes under
// balanced (permuted) 1D partitioning: both orientations, each split into p
// tiles holding this device's 1/p nonzero share, with one CSR row pointer
// array per tile.
func AnalyticAdjacencyBytes(n, m int64, p int) (int64, error) {
	if p < 1 {
		return 0, fmt.Errorf("memcheck: analytic adjacency needs p >= 1, got %d", p)
	}
	rows := (n + int64(p) - 1) / int64(p)
	nnzShare := m / int64(p)
	return 2 * (int64(p)*(rows+1)*8 + nnzShare*8), nil
}

// AnalyticDeviceEnv is DeviceEnv for an unbuilt, balanced partition at full
// scale: rows = ceil(n/p) on every device, tile rows likewise, adjacency
// from AnalyticAdjacencyBytes.
func AnalyticDeviceEnv(n, m int64, p int, dims []int) (schedcheck.Env, error) {
	adj, err := AnalyticAdjacencyBytes(n, m, p)
	if err != nil {
		return nil, err
	}
	rows := (n + int64(p) - 1) / int64(p)
	return DeviceEnv(rows, rows, adj, dims), nil
}

// FitVerdict is one (dataset, strategy) fit check: does the certified
// resident footprint per device fit the machine's per-GPU memory?
type FitVerdict struct {
	Dataset  string `json:"dataset"`
	Strategy string `json:"strategy"`
	N        int64  `json:"n"`
	M        int64  `json:"m"`
	P        int    `json:"gpus"`
	Scale    int    `json:"scale"`
	Bytes    int64  `json:"resident_bytes_per_gpu"`
	Budget   int64  `json:"budget_bytes_per_gpu"`
	Fits     bool   `json:"fits"`
}

// FitCatalog evaluates each strategy's resident closed form for every
// catalog dataset — including Papers, which the figure-order catalog
// omits — at the given scale divisor (scale 1 is the paper-scale graph:
// the ROADMAP's "does Papers fit at Scale 1?" question) and returns fit
// verdicts against spec.MemBytesPerGPU. It covers every PeakForm but the
// sampled pipeline's (whose footprint needs a batch/fanout plan, not just a
// dataset). A strategy with replication factor c stores each of its p/c
// blocks on c devices, so its analytic environment uses the block count, not
// the device count, and it is skipped where c does not divide p.
func FitCatalog(spec sim.MachineSpec, p, scale, hidden, layers int) ([]FitVerdict, error) {
	if scale < 1 {
		return nil, fmt.Errorf("memcheck: scale must be >= 1, got %d", scale)
	}
	catalog := gen.Catalog()
	var out []FitVerdict
	for _, name := range gen.AllNames() {
		ds := catalog[name]
		n, m := ds.FullN/int64(scale), ds.FullM/int64(scale)
		dims := nn.LayerDims(ds.FeatDim, hidden, layers, ds.Classes)
		for _, strat := range []string{"1d-row", "1d-col", "1.5d", "gat", "cagnet"} {
			c := replication(strat)
			if p%c != 0 {
				continue
			}
			fp, err := PeakForm(strat, Model{Dims: dims, P: p, Device: 0, Overlap: true})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, strat, err)
			}
			var env schedcheck.Env
			if strat == "cagnet" {
				rows := (n + int64(p) - 1) / int64(p)
				env = CagnetEnv(rows, m/int64(p), dims)
			} else if env, err = AnalyticDeviceEnv(n, m, p/c, dims); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, strat, err)
			}
			bytes, err := fp.Resident.Eval(env)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, strat, err)
			}
			out = append(out, FitVerdict{
				Dataset: name, Strategy: strat, N: n, M: m, P: p, Scale: scale,
				Bytes: bytes, Budget: spec.MemBytesPerGPU, Fits: bytes <= spec.MemBytesPerGPU,
			})
		}
	}
	return out, nil
}
