package memcheck

import (
	"fmt"
	"slices"

	"mggcn/internal/gen"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
)

// AnalyticAdjacencyBytes estimates device 0's adjacency-tile bytes under a
// balanced (permuted) partition of n vertices and m nonzeros over p devices
// at replication factor c: p/c blocks of ceil(n/(p/c)) rows, and in both
// orientations one CSR tile (with its own row pointer array) per stage of
// the device's replica group — ceil((p/c)/c) of them, each with 1/(p/c)²
// of the nonzeros: m/p when c divides p/c, all of m at p = c (one block).
func AnalyticAdjacencyBytes(n, m int64, p, c int) (int64, error) {
	if c < 1 || p < 1 || p%c != 0 {
		return 0, fmt.Errorf("memcheck: analytic adjacency needs a positive P divisible by %d, got %d", c, p)
	}
	blocks := int64(p / c)
	rows := (n + blocks - 1) / blocks
	tiles := (blocks + int64(c) - 1) / int64(c)
	return 2 * (tiles*(rows+1)*8 + m*tiles/(blocks*blocks)*8), nil
}

// AnalyticResident evaluates the named strategy's resident footprint for
// device 0 of an unbuilt, balanced (permuted) partition of n vertices and m
// nonzeros at full scale over p devices: a strategy with replication factor
// c cuts P/c blocks of ceil(n/(P/c)) rows (1.5D: twice 1D's rows per
// device), with adjacency bytes from AnalyticAdjacencyBytes. "cagnet" is
// cagnetResident.
func AnalyticResident(name string, n, m int64, dims []int, p int, overlap bool) (int64, error) {
	if name == "cagnet" {
		return cagnetResident(n, m, dims, p)
	}
	c := replication(name)
	adj, err := AnalyticAdjacencyBytes(n, m, p, c)
	if err != nil {
		return 0, err
	}
	rows := (n + int64(p/c) - 1) / int64(p/c)
	fp, err := PeakForm(name, Model{Dims: dims, P: p, Overlap: overlap,
		Rows: rows, TileRows: rows, AdjBytes: adj})
	if err != nil {
		return 0, err
	}
	return fp.Resident, nil
}

// cagnetResident is CAGNET's own per-GPU footprint and, at p = 1, DGL's (Fig
// 12's two baseline lines), which no recorded graph allocates: the trainer
// that times both baselines reuses §4.2's buffers, they keep three per layer.
// Device 0 of a balanced partition holds ceil(n/p) rows: their row pointers,
// its m/p nonzeros (column index and value), the feature shard, three
// buffers per layer, two stage-receive buffers at the widest width, and the
// weights with Adam's two moments.
func cagnetResident(n, m int64, dims []int, p int) (int64, error) {
	if len(dims) < 2 || p < 1 {
		return 0, fmt.Errorf("memcheck: cagnet needs at least 1 layer and 1 GPU, got dims %v at P=%d", dims, p)
	}
	rows := (n + int64(p) - 1) / int64(p)
	var outs int64
	for _, d := range dims[1:] {
		outs += int64(d)
	}
	return 8*(rows+1) + 8*(m/int64(p)) + 4*rows*int64(dims[0]) +
		12*rows*outs + 8*rows*int64(slices.Max(dims)) + 16*params(dims), nil
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
// dataset), and CAGNET's own footprint. A strategy whose replication factor
// does not divide p is skipped.
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
		for _, strat := range []string{"1d-row", "1d-col", "1.5d", "cagnet"} {
			if p%replication(strat) != 0 {
				continue
			}
			bytes, err := AnalyticResident(strat, n, m, dims, p, true)
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
