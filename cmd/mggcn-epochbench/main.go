// Command mggcn-epochbench sweeps the sampled minibatch pipeline (DESIGN.md
// §8) and writes the matrix nothing else reports as machine-readable JSON
// (BENCH_sample.json by default): cache fraction x pipelining at one device
// count, with simulated epoch seconds, stream overlap ratios, pipeline
// speedups and the extract stage's gather hit/miss words per cell, plus a
// recovery-overhead column from the elastic pipeline under injected faults.
// Wall-clock epochs, replay speedup and kernel rates are the repository
// benchmark's (benchmark/, BENCHMARK.json); full-batch certified-vs-measured
// memory is `mggcn-verify memcheck -json`.
//
// Every cell also carries a memory column: the memcheck closed form's
// certified peak slab bytes next to the allocation high-water sim.AllocMeter
// measured on one extra recorded epoch of the same configuration (a fresh
// trainer, so the observer never pollutes the timings), making memory
// regressions diffable alongside time.
//
// Usage:
//
//	mggcn-epochbench                           # full matrix -> BENCH_sample.json
//	mggcn-epochbench -samplefracs 0,0.5 -sampleout -   # reduced sweep, JSON to stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mggcn/internal/comm"
	"mggcn/internal/core"
	"mggcn/internal/fault"
	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/kernel"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
)

func main() {
	var (
		dataset = flag.String("dataset", "products", "catalog dataset to train (non-phantom)")
		hidden  = flag.Int("hidden", 128, "hidden layer width")
		epochs  = flag.Int("epochs", 3, "epochs per cell (median reported)")

		sampleOut     = flag.String("sampleout", "BENCH_sample.json", "output path, or - for stdout")
		sampleDevices = flag.Int("sampledevices", 4, "device count for the matrix")
		sampleBatch   = flag.Int("samplebatch", 512, "sampled minibatch size")
		sampleFanouts = flag.String("samplefanouts", "5,10,15", "comma-separated per-layer fanouts, outermost first")
		sampleFracs   = flag.String("samplefracs", "0,0.25,0.5,0.75", "comma-separated feature-cache fractions")
	)
	flag.Parse()

	benchSampled(*dataset, *sampleDevices, *hidden, *sampleBatch,
		parseList(*sampleFanouts, "-samplefanouts", strconv.Atoi),
		parseList(*sampleFracs, "-samplefracs", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }),
		*epochs, *sampleOut)
}

// sampleCell is one (cacheFrac, pipeline) sampled-pipeline measurement:
// simulated epoch seconds on the machine plus the extract stage's gather
// accounting. SpeedupVsUnpipelined is filled on pipelined cells from the
// matching pipeline-off cell at the same cache fraction.
type sampleCell struct {
	Devices              int     `json:"devices"`
	Batch                int     `json:"batch"`
	Fanouts              []int   `json:"fanouts"`
	CacheFrac            float64 `json:"cache_frac"`
	Pipeline             bool    `json:"pipeline"`
	Epochs               int     `json:"epochs"`
	SimEpochSeconds      float64 `json:"sim_epoch_seconds"`
	OverlapRatio         float64 `json:"overlap_ratio"`
	SpeedupVsUnpipelined float64 `json:"speedup_vs_unpipelined,omitempty"`
	GatherHitWords       int64   `json:"gather_hit_words"`
	GatherMissWords      int64   `json:"gather_miss_words"`
	CacheHitRate         float64 `json:"cache_hit_rate"`
	Loss                 float64 `json:"loss"`
	WallMS               float64 `json:"wall_epoch_ms"`

	// Memory column: the slab high-water the allocation meter measured on
	// one recorded epoch of this cell, next to the memcheck closed form's
	// certified peak when the cell meets the form's preconditions (equal
	// steps per device, enough of them); MemUncertified carries the reason
	// otherwise, with the measured value still recorded.
	CertifiedSlabBytes int64  `json:"certified_peak_slab_bytes,omitempty"`
	MeasuredSlabBytes  int64  `json:"measured_slab_high_water_bytes"`
	MemCertified       bool   `json:"memory_certified"`
	MemUncertified     string `json:"memory_uncertified,omitempty"`
}

type sampleResult struct {
	Dataset    string       `json:"dataset"`
	N          int          `json:"n"`
	M          int64        `json:"m"`
	TrainVerts int          `json:"train_verts"`
	Hidden     int          `json:"hidden"`
	Layers     int          `json:"layers"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"numcpu"`
	KernelImpl string       `json:"kernel_impl"`
	Cells      []sampleCell `json:"cells"`
	// Recovery is the elastic pipeline's overhead column: one injected
	// fault per row, the run's effective simulated time against the
	// fault-free baseline at the starting device count.
	Recovery []recoveryCell `json:"recovery,omitempty"`
	WallSecs float64        `json:"wall_seconds"`
}

// recoveryCell measures one elastic sampled run under an injected fault:
// how many recoveries it took, the surviving group size, and the ratio of
// its effective simulated time to the fault-free run's. The ratio counts
// completed (possibly degraded-P) epochs; voided partial replays carry no
// simulated time, so it isolates the cost of retrying and of running on
// fewer devices.
type recoveryCell struct {
	Fault            string  `json:"fault"`
	FinalP           int     `json:"final_p"`
	Recoveries       int     `json:"recoveries"`
	EffectiveEpochs  int     `json:"effective_epochs"`
	SimSeconds       float64 `json:"sim_seconds"`
	FaultFreeSeconds float64 `json:"fault_free_sim_seconds"`
	RecoveryOverhead float64 `json:"recovery_overhead_ratio"`
}

// benchSampled measures the factored sampler/trainer pipeline: a cache
// fraction x pipeline on/off matrix at one device count, reporting
// simulated epoch time, stream overlap, and gather hit/miss words. The
// simulated times are the deterministic output of the cost model, so the
// pipeline speedup and cache traffic cuts they show are reproducible on
// any host; wall_epoch_ms is the only host-dependent column.
func benchSampled(name string, devices, hidden, batch int, fanouts []int, fracs []float64, epochs int, outPath string) {
	g, spec, err := gen.Load(name, false)
	if err != nil {
		log.Fatal(err)
	}
	res := sampleResult{
		Dataset: name, N: g.N(), M: g.M(),
		Hidden: hidden, Layers: len(fanouts),
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		KernelImpl: kernel.Impl(),
	}
	start := time.Now()
	for _, frac := range fracs {
		var offSim float64
		for _, pipeline := range []bool{false, true} {
			cfg := core.DefaultSampledConfig(sim.DGXA100(), devices, spec.Scale)
			cfg.Hidden = hidden
			cfg.Layers = len(fanouts)
			cfg.Fanouts = fanouts
			cfg.Batch = batch
			cfg.CacheFrac = frac
			cfg.Pipeline = pipeline
			cfg.CommMeter = comm.NewMeter()
			tr, err := core.NewSampledTrainer(g, cfg)
			if err != nil {
				log.Fatal(err)
			}
			res.TrainVerts = tr.TrainVertexCount()
			sims := make([]float64, 0, epochs)
			walls := make([]float64, 0, epochs)
			var last *core.SampledEpochStats
			for e := 0; e < epochs; e++ {
				t0 := time.Now()
				s, err := tr.RunEpoch()
				if err != nil {
					log.Fatal(err)
				}
				walls = append(walls, float64(time.Since(t0).Microseconds())/1e3)
				sims = append(sims, s.EpochSeconds)
				last = s
			}
			sort.Float64s(sims)
			sort.Float64s(walls)
			c := sampleCell{
				Devices: devices, Batch: batch, Fanouts: fanouts,
				CacheFrac: frac, Pipeline: pipeline, Epochs: epochs,
				SimEpochSeconds: sims[len(sims)/2],
				OverlapRatio:    last.OverlapRatio,
				GatherHitWords:  cfg.CommMeter.Words(sim.CollGatherHit),
				GatherMissWords: cfg.CommMeter.Words(sim.CollGatherMiss),
				Loss:            last.Loss,
				WallMS:          walls[len(walls)/2],
			}
			if tot := c.GatherHitWords + c.GatherMissWords; tot > 0 {
				c.CacheHitRate = float64(c.GatherHitWords) / float64(tot)
			}
			if pipeline {
				c.SpeedupVsUnpipelined = offSim / c.SimEpochSeconds
			} else {
				offSim = c.SimEpochSeconds
			}
			c.CertifiedSlabBytes, c.MeasuredSlabBytes, c.MemCertified, c.MemUncertified = sampleMemory(g, cfg)
			res.Cells = append(res.Cells, c)
			fmt.Fprintf(os.Stderr,
				"sample frac=%.2f pipeline=%-5t sim=%.1fms overlap=%.2f speedup=%.2fx hit=%.2f wall=%.0fms slab=%dB\n",
				frac, pipeline, c.SimEpochSeconds*1e3, c.OverlapRatio,
				c.SpeedupVsUnpipelined, c.CacheHitRate, c.WallMS, c.MeasuredSlabBytes)
		}
	}
	res.Recovery = benchSampledRecovery(g, spec, devices, hidden, batch, fanouts, epochs)
	res.WallSecs = time.Since(start).Seconds()

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if outPath == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
}

// benchSampledRecovery runs the elastic sampled pipeline under one injected
// fault per row and reports the recovery-overhead column: effective
// simulated seconds against the fault-free baseline at the starting P.
func benchSampledRecovery(g *graph.Graph, spec gen.DatasetSpec, devices, hidden, batch int, fanouts []int, epochs int) []recoveryCell {
	base := func() core.SampledConfig {
		cfg := core.DefaultSampledConfig(sim.DGXA100(), devices, spec.Scale)
		cfg.Hidden = hidden
		cfg.Layers = len(fanouts)
		cfg.Fanouts = fanouts
		cfg.Batch = batch
		cfg.CacheFrac = 0.5
		return cfg
	}
	tr, err := core.NewSampledTrainer(g, base())
	if err != nil {
		log.Fatal(err)
	}
	var faultFree float64
	for e := 0; e < epochs; e++ {
		s, err := tr.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		faultFree += s.EpochSeconds
	}

	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"crash", fault.Plan{Seed: 1, Crash: &fault.CrashSpec{
			Device: devices - 1, OnLabel: "sample", Stream: fault.OnStream(sim.StreamSample)}}},
		{"flaky-sampler", fault.Plan{Seed: 1, TransientTask: &fault.TransientTaskSpec{
			Device: 0, OnLabel: "s1/sample", Failures: 1, Stream: fault.OnStream(sim.StreamSample)}}},
		{"transient-exhaust", fault.Plan{Seed: 1, Transient: &fault.TransientSpec{Every: 2, Failures: 100}}},
	}
	var out []recoveryCell
	for _, p := range plans {
		cfg := base()
		cfg.Fault = fault.New(p.plan)
		cfg.Retry = comm.RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Microsecond, Multiplier: 2}
		res, err := core.TrainSampledElastic(g, cfg, epochs)
		if err != nil {
			log.Fatalf("recovery bench %s: %v", p.name, err)
		}
		var sim float64
		for _, s := range res.Stats {
			sim += s.EpochSeconds
		}
		c := recoveryCell{
			Fault: p.name, FinalP: res.FinalP,
			Recoveries: len(res.Events), EffectiveEpochs: len(res.Stats),
			SimSeconds: sim, FaultFreeSeconds: faultFree,
		}
		if faultFree > 0 {
			c.RecoveryOverhead = sim / faultFree
		}
		fmt.Fprintf(os.Stderr, "recovery %-17s finalP=%d recoveries=%d overhead=%.3fx\n",
			p.name, c.FinalP, c.Recoveries, c.RecoveryOverhead)
		out = append(out, c)
	}
	return out
}

// sampleMemory records one extra epoch of the cell's configuration on a
// fresh metered trainer (so the observer and its epoch never touch the
// timing or gather columns) and pairs the measured slab high-water with
// the sampled closed form's certified peak. When the cell misses the
// form's preconditions (too few steps per device for a steady-state
// pipeline) the reason is returned and the measured value stands alone.
func sampleMemory(g *graph.Graph, cfg core.SampledConfig) (certified, measured int64, ok bool, note string) {
	meter := sim.NewAllocMeter()
	cfg.CommMeter = nil
	cfg.ExecObserver = meter
	tr, err := core.NewSampledTrainer(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := tr.RunEpoch()
	if err != nil {
		log.Fatal(err)
	}
	peaks := meter.SlabPeakBytes()
	for _, b := range peaks {
		if b > measured {
			measured = b
		}
	}
	// Batches deal round-robin, so the floor is the fewest steps any device
	// runs; the form's precondition only needs every device past the
	// pipeline's steady state, and the peak itself is step-count free.
	dims := nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)
	caps := tr.FrontierCapacities()
	fp, err := memcheck.PeakForm("sampled", memcheck.Model{
		Dims: dims, P: cfg.P, Device: 0, Caps: caps,
		Depth: tr.Depth(), Steps: stats.Batches / cfg.P,
	})
	if err != nil {
		log.Fatal(err)
	}
	if fp.Uncertified != "" {
		return 0, measured, false, fp.Uncertified
	}
	certified, err = fp.SlabBytes.Eval(memcheck.SampledEnv(caps, tr.Caches()[0].Slab.Rows, dims))
	if err != nil {
		log.Fatal(err)
	}
	ok = true
	for d := 0; d < cfg.P; d++ {
		if peaks[sim.DeviceKey(d)] != certified {
			ok = false
		}
	}
	return certified, measured, ok, ""
}

// parseList splits a comma-separated flag value and parses every entry.
func parseList[T any](csv, flagName string, parse func(string) (T, error)) []T {
	var vals []T
	for _, field := range strings.Split(csv, ",") {
		v, err := parse(strings.TrimSpace(field))
		if err != nil {
			log.Fatalf("bad %s entry %q: %v", flagName, field, err)
		}
		vals = append(vals, v)
	}
	return vals
}
