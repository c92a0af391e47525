package mggcn

// The benchmark harness: one Benchmark per table and figure of the paper's
// evaluation (§6). Each benchmark measures the operation the figure times
// — usually one full-batch epoch under the figure's configuration — and
// reports the simulated epoch time at paper scale as the custom metric
// "sim-ms/epoch" (wall-clock ns/op measures the simulator itself, not the
// modeled machine). Regenerate the full tables with: go run ./cmd/mggcn-bench

import (
	"fmt"
	"sync"
	"testing"

	"mggcn/internal/baseline"
	"mggcn/internal/sim"
)

var (
	benchTrainersMu sync.Mutex
	benchTrainers   = map[string]*Trainer{}
)

// benchTrainer builds (and caches) a phantom trainer for a figure config.
func benchTrainer(b *testing.B, machine MachineSpec, dataset string, p, hidden, layers int, permute, overlap bool) *Trainer {
	b.Helper()
	key := fmt.Sprintf("%s/%s/%d/%d/%d/%t/%t", machine.Name, dataset, p, hidden, layers, permute, overlap)
	benchTrainersMu.Lock()
	defer benchTrainersMu.Unlock()
	if tr, ok := benchTrainers[key]; ok {
		return tr
	}
	ds, err := LoadDataset(dataset, true)
	if err != nil {
		b.Fatal(err)
	}
	o := DefaultOptions(machine, p)
	o.Hidden, o.Layers = hidden, layers
	o.Permute, o.Overlap = permute, overlap
	tr, err := NewTrainer(ds, o)
	if err != nil {
		if IsOOM(err) {
			b.Skipf("configuration OOMs (as in the paper): %v", err)
		}
		b.Fatal(err)
	}
	benchTrainers[key] = tr
	return tr
}

// runEpochBench loops RunEpoch and reports the simulated epoch time.
func runEpochBench(b *testing.B, tr *Trainer) {
	b.Helper()
	var sec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sec = mustEpoch(tr).EpochSeconds
	}
	b.ReportMetric(sec*1e3, "sim-ms/epoch")
}

// BenchmarkTable1Generation measures dataset synthesis (Table 1's inputs).
func BenchmarkTable1Generation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := SynthesizeDataset("bench", 3300, 3, 64, 6, uint64(i), true)
		if ds.N() != 3300 {
			b.Fatal("bad dataset")
		}
	}
}

// BenchmarkFig05Breakdown runs the Fig 5 configuration (model A, DGX-V100)
// and reports the SpMM share of the epoch.
func BenchmarkFig05Breakdown(b *testing.B) {
	for _, dataset := range []string{"arxiv", "products", "reddit"} {
		for _, p := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/gpus=%d", dataset, p), func(b *testing.B) {
				tr := benchTrainer(b, DGXV100(), dataset, p, 512, 2, true, true)
				var spmmPct float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					spmmPct = mustEpoch(tr).BreakdownPercent()[sim.KindSpMM]
				}
				b.ReportMetric(spmmPct, "spmm-%")
			})
		}
	}
}

// BenchmarkFig06Timeline times the epoch under original vs permuted
// ordering (Products, 4 GPUs, no overlap) — Fig 6's contrast.
func BenchmarkFig06Timeline(b *testing.B) {
	for _, permute := range []bool{false, true} {
		name := "original"
		if permute {
			name = "permuted"
		}
		b.Run(name, func(b *testing.B) {
			runEpochBench(b, benchTrainer(b, DGXV100(), "products", 4, 512, 2, permute, false))
		})
	}
}

// BenchmarkFig07Ablation sweeps the permute/overlap ablation on 8 GPUs.
func BenchmarkFig07Ablation(b *testing.B) {
	for _, dataset := range []string{"arxiv", "products", "reddit"} {
		for _, cfg := range []struct {
			name             string
			permute, overlap bool
		}{
			{"orig", false, false},
			{"perm", true, false},
			{"perm+ovlp", true, true},
		} {
			b.Run(dataset+"/"+cfg.name, func(b *testing.B) {
				runEpochBench(b, benchTrainer(b, DGXV100(), dataset, 8, 512, 2, cfg.permute, cfg.overlap))
			})
		}
	}
}

// BenchmarkFig08Overlap times the epoch with and without §4.3 overlap
// (permuted Products, 4 GPUs) — Fig 8's contrast.
func BenchmarkFig08Overlap(b *testing.B) {
	for _, overlap := range []bool{false, true} {
		name := "no-overlap"
		if overlap {
			name = "overlap"
		}
		b.Run(name, func(b *testing.B) {
			runEpochBench(b, benchTrainer(b, DGXV100(), "products", 4, 512, 2, true, overlap))
		})
	}
}

// BenchmarkFig09DegreeSweep times epochs across the BTER degree family and
// reports the 8-GPU speedup over 1 GPU.
func BenchmarkFig09DegreeSweep(b *testing.B) {
	for _, factor := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%dx", factor), func(b *testing.B) {
			ds := DegreeScaledDataset(factor, true)
			tr1, err := NewTrainer(ds, DefaultOptions(DGXV100(), 1))
			if err != nil {
				b.Fatal(err)
			}
			tr8, err := NewTrainer(ds, DefaultOptions(DGXV100(), 8))
			if err != nil {
				b.Fatal(err)
			}
			var speedup float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				speedup = mustEpoch(tr1).EpochSeconds / mustEpoch(tr8).EpochSeconds
			}
			b.ReportMetric(speedup, "speedup-8gpu")
		})
	}
}

// benchComparison reports MG-GCN's simulated epoch next to the baseline's.
func benchComparison(b *testing.B, machine MachineSpec, dataset string, withCAGNET bool) {
	tr := benchTrainer(b, machine, dataset, 8, 512, 2, true, true)
	ds, err := LoadDataset(dataset, true)
	if err != nil {
		b.Fatal(err)
	}
	dgl := baseline.NewDGL(machine, ds.Scale(), 512, 2)
	cag := baseline.NewCAGNET(machine, 8, ds.Scale(), 512, 2)
	var mg, dglSec, cagSec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg = mustEpoch(tr).EpochSeconds
		dglSec = dgl.EpochSeconds(ds.g)
		if withCAGNET {
			cagSec = cag.EpochSeconds(ds.g)
		}
	}
	b.ReportMetric(mg*1e3, "mggcn-sim-ms")
	b.ReportMetric(dglSec*1e3, "dgl-sim-ms")
	b.ReportMetric(dglSec/mg, "speedup-vs-dgl")
	if withCAGNET {
		b.ReportMetric(cagSec/mg, "speedup-vs-cagnet")
	}
}

// BenchmarkFig10V100Runtime regenerates the Fig 10 comparison rows.
func BenchmarkFig10V100Runtime(b *testing.B) {
	for _, dataset := range []string{"cora", "arxiv", "products", "reddit"} {
		b.Run(dataset, func(b *testing.B) { benchComparison(b, DGXV100(), dataset, true) })
	}
}

// BenchmarkFig11V100Speedup reports the Fig 11 speedups (same runs as Fig
// 10, normalized to DGL).
func BenchmarkFig11V100Speedup(b *testing.B) {
	b.Run("products", func(b *testing.B) { benchComparison(b, DGXV100(), "products", true) })
}

// BenchmarkFig12Memory sweeps the layers-within-budget search of Fig 12.
func BenchmarkFig12Memory(b *testing.B) {
	ds, err := LoadDataset("reddit", true)
	if err != nil {
		b.Fatal(err)
	}
	o := DefaultOptions(DGXV100(), 8)
	var layers int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layers = 0
		for {
			bytes, err := EstimateMemoryBytesPerDevice(ds, optWithLayers(o, layers+1))
			if err != nil {
				b.Fatal(err)
			}
			if bytes > 30<<30 {
				break
			}
			layers++
		}
	}
	b.ReportMetric(float64(layers), "max-layers-30GiB")
}

func optWithLayers(o Options, layers int) Options {
	o.Layers = layers
	return o
}

// BenchmarkFig13A100Runtime regenerates the Fig 13 comparison rows.
func BenchmarkFig13A100Runtime(b *testing.B) {
	for _, dataset := range []string{"cora", "arxiv", "products", "reddit"} {
		b.Run(dataset, func(b *testing.B) { benchComparison(b, DGXA100(), dataset, false) })
	}
}

// BenchmarkFig14A100Speedup reports the Fig 14 speedups.
func BenchmarkFig14A100Speedup(b *testing.B) {
	b.Run("reddit", func(b *testing.B) { benchComparison(b, DGXA100(), "reddit", false) })
}

// BenchmarkTable2DistGNN evaluates the DistGNN cost model at its Table 2
// operating points.
func BenchmarkTable2DistGNN(b *testing.B) {
	for _, cfg := range []struct {
		dataset string
		hidden  int
		sockets int
	}{
		{"reddit", 16, 1}, {"products", 256, 64}, {"papers", 256, 128},
	} {
		b.Run(fmt.Sprintf("%s/%dskt", cfg.dataset, cfg.sockets), func(b *testing.B) {
			ds, err := LoadDataset(cfg.dataset, true)
			if err != nil {
				b.Fatal(err)
			}
			layers := 3
			if cfg.dataset == "reddit" {
				layers = 2
			}
			m := baseline.NewDistGNN(cfg.hidden, layers)
			var sec float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sec = m.EpochSeconds(ds.g, ds.Scale(), cfg.sockets)
			}
			b.ReportMetric(sec*1e3, "sim-ms/epoch")
		})
	}
}

// BenchmarkTable3MGGCN regenerates the Table 3 cells: the §6 models on
// DGX-A100 with 8 GPUs.
func BenchmarkTable3MGGCN(b *testing.B) {
	for _, cfg := range []struct {
		dataset        string
		hidden, layers int
	}{
		{"reddit", 16, 2}, {"products", 256, 3}, {"proteins", 256, 3}, {"papers", 208, 3},
	} {
		b.Run(cfg.dataset, func(b *testing.B) {
			runEpochBench(b, benchTrainer(b, DGXA100(), cfg.dataset, 8, cfg.hidden, cfg.layers, true, true))
		})
	}
}

// BenchmarkAccuracyEpoch measures one real (non-phantom) distributed
// training epoch — actual float32 math across 4 simulated devices.
func BenchmarkAccuracyEpoch(b *testing.B) {
	ds := SynthesizeDataset("bench-real", 2000, 16, 32, 8, 11, false)
	o := DefaultOptions(DGXA100(), 4)
	o.Hidden = 64
	tr, err := NewTrainer(ds, o)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustEpoch(tr)
	}
}

// BenchmarkEpochWallClock measures the real wall-clock of one non-phantom
// Products-scale epoch on 8 simulated devices: serial closure issue
// (ExecWorkers = 1) against the dependency-driven parallel executor
// (ExecWorkers = GOMAXPROCS). Unlike the figure benchmarks above, the
// headline metric here IS ns/op — the replayed float32 arithmetic is the
// work being parallelized, and on a host with GOMAXPROCS >= 8 the parallel
// replay should cut the epoch by >= 2x. The repository benchmark reports the
// same comparison per workload as sim.replay_speedup (benchmark/).
func BenchmarkEpochWallClock(b *testing.B) {
	ds, err := LoadDataset("products", false)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name        string
		execWorkers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			o := DefaultOptions(DGXA100(), 8)
			o.Hidden = 128 // keeps a single-thread epoch near a second
			o.ExecWorkers = mode.execWorkers
			tr, err := NewTrainer(ds, o)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustEpoch(tr)
			}
		})
	}
}

// BenchmarkSec51Analysis evaluates the closed-form §5.1 comparison.
func BenchmarkSec51Analysis(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = baseline.CommTime15D(DGXV100(), 1e6, 512) / baseline.CommTime1D(DGXV100(), 1e6, 512)
	}
	b.ReportMetric(ratio, "1.5D/1D-ratio")
}

// BenchmarkStrategies compares the three §4.1/§5.1 partitioning strategies
// end-to-end (Products, 8 GPUs, DGX-A100).
func BenchmarkStrategies(b *testing.B) {
	for _, s := range []Strategy{Strategy1DRow, Strategy1DCol, Strategy15D} {
		b.Run(s.String(), func(b *testing.B) {
			ds, err := LoadDataset("products", true)
			if err != nil {
				b.Fatal(err)
			}
			o := DefaultOptions(DGXA100(), 8)
			o.Strategy = s
			tr, err := NewTrainer(ds, o)
			if err != nil {
				b.Fatal(err)
			}
			var sec float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sec = mustEpoch(tr).EpochSeconds
			}
			b.ReportMetric(sec*1e3, "sim-ms/epoch")
		})
	}
}

// BenchmarkOrderings compares the §5.2 vertex-ordering ablation.
func BenchmarkOrderings(b *testing.B) {
	for _, ord := range []Ordering{OrderingNatural, OrderingRandom, OrderingBlockCyclic} {
		b.Run(ord.String(), func(b *testing.B) {
			ds, err := LoadDataset("products", true)
			if err != nil {
				b.Fatal(err)
			}
			o := DefaultOptions(DGXV100(), 8)
			o.Ordering = ord
			tr, err := NewTrainer(ds, o)
			if err != nil {
				b.Fatal(err)
			}
			var sec float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sec = mustEpoch(tr).EpochSeconds
			}
			b.ReportMetric(sec*1e3, "sim-ms/epoch")
		})
	}
}

// BenchmarkMultiNodeWall measures the node-boundary penalty: the same
// Reddit epoch on 8 GPUs (one node) vs 16 GPUs (two nodes).
func BenchmarkMultiNodeWall(b *testing.B) {
	cluster := MultiNode(DGXV100(), 2, 12.5e9)
	for _, p := range []int{8, 16} {
		b.Run(fmt.Sprintf("gpus=%d", p), func(b *testing.B) {
			ds, err := LoadDataset("reddit", true)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := NewTrainer(ds, DefaultOptions(cluster, p))
			if err != nil {
				b.Fatal(err)
			}
			var sec float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sec = mustEpoch(tr).EpochSeconds
			}
			b.ReportMetric(sec*1e3, "sim-ms/epoch")
		})
	}
}
