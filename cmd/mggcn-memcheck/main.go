// Command mggcn-memcheck is the static peak-memory certifier, the memory
// twin of mggcn-schedcheck (internal/memcheck, DESIGN.md §6.4). For every
// shipped strategy — including each elastic P-1 degradation and the sampled
// minibatch pipeline — it records one real epoch graph and cross-checks
// three independent derivations of the per-device memory high-water:
//
//   - the closed-form certified peak (exact symbolic bytes over the
//     schedcheck expression algebra, evaluated per device);
//   - the graph-liveness high-water (a happens-before interval analysis
//     over the recorded task access sets, no replay);
//   - the byte-accurate allocation meter measured during the replay
//     (sim.AllocMeter),
//
// all of which must agree byte-exactly, along with the certified resident
// footprint against the device pool's allocated bytes. It then evaluates
// the resident closed forms under analytic full-scale environments to issue
// fit / no-fit verdicts for every catalog dataset against the machine's
// per-GPU memory — the ROADMAP's "does Papers fit at Scale 1?" question.
//
// Usage:
//
//	go run ./cmd/mggcn-memcheck                     # certify every strategy
//	go run ./cmd/mggcn-memcheck -strategy sampled -gpus 2
//	go run ./cmd/mggcn-memcheck -scale 1 -json      # paper-scale verdicts as JSON
//
// Exits 0 when every leg agrees and 1 on any disagreement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mggcn/internal/baseline"
	"mggcn/internal/core"
	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
	"mggcn/internal/schedcheck"
	"mggcn/internal/sim"
)

// crossCheck is one device's three-way comparison, JSON-ready.
type crossCheck struct {
	Strategy      string `json:"strategy"`
	P             int    `json:"gpus"`
	Device        string `json:"device"`
	CertifiedByte int64  `json:"certified_slab_bytes"`
	LivenessByte  int64  `json:"liveness_slab_bytes"`
	MeterByte     int64  `json:"meter_slab_bytes"`
	SlabCount     int    `json:"certified_slab_count"`
	ResidentByte  int64  `json:"certified_resident_bytes"`
	PoolByte      int64  `json:"pool_used_bytes"`
	OK            bool   `json:"ok"`
}

func main() {
	var (
		machine  = flag.String("machine", "a100", "machine: v100 or a100")
		gpus     = flag.Int("gpus", 4, "number of GPUs (1-8)")
		strategy = flag.String("strategy", "all", "1d-row, 1d-col, 1.5d, gat, sampled, cagnet, or all")
		hidden   = flag.Int("hidden", 16, "hidden layer width")
		layers   = flag.Int("layers", 2, "layer count")
		n        = flag.Int("n", 160, "synthetic vertex count for the cross-check")
		degree   = flag.Int("degree", 8, "synthetic average degree")
		features = flag.Int("features", 12, "synthetic feature width")
		classes  = flag.Int("classes", 4, "synthetic class count")
		scale    = flag.Int("scale", 1, "catalog scale divisor for fit verdicts (1 = paper scale)")
		fitHid   = flag.Int("fit-hidden", 512, "hidden width for fit verdicts")
		format   = flag.String("format", "csr", "sparse format for fit verdicts: csr, sell, auto")
		jsonOut  = flag.Bool("json", false, "emit cross-checks and verdicts as JSON")
	)
	flag.Parse()

	var spec sim.MachineSpec
	switch strings.ToLower(*machine) {
	case "v100", "dgx-1", "dgx-v100":
		spec = sim.DGXV100()
	case "a100", "dgx-a100":
		spec = sim.DGXA100()
	default:
		log.Fatalf("unknown machine %q (want v100 or a100)", *machine)
	}

	g := gen.Generate("memcheck", gen.DefaultBTER(*n, float64(*degree), 99), *features, *classes, false)

	names := []string{"1d-row", "1d-col", "1.5d", "gat", "sampled", "cagnet"}
	if *strategy != "all" {
		ok := false
		for _, s := range names {
			if s == *strategy {
				ok = true
			}
		}
		if !ok {
			log.Fatalf("unknown strategy %q", *strategy)
		}
		names = []string{*strategy}
	}

	cfg := core.DefaultConfig(spec, *gpus, 1)
	cfg.Hidden = *hidden
	cfg.Layers = *layers

	var checks []crossCheck
	findings := 0
	for _, name := range names {
		cs := certifyStrategy(name, g, cfg, *gpus)
		// The elastic degradation path: after a device loss the trainer
		// rebuilds at P-1, downgrading 1.5D to 1D-row at odd P.
		if p := *gpus - 1; p >= 1 && name != "cagnet" && name != "sampled" {
			cs = append(cs, certifyStrategy(degrade(name, p), g, cfg, p)...)
		}
		for _, c := range cs {
			if !c.OK {
				findings++
			}
			if !*jsonOut {
				status := "certified"
				if !c.OK {
					status = "DISAGREES"
				}
				fmt.Printf("%s@%d %s: %s (slab %d B in %d slabs, resident %d B)\n",
					c.Strategy, c.P, c.Device, status, c.CertifiedByte, c.SlabCount, c.ResidentByte)
			}
		}
		checks = append(checks, cs...)
	}

	verdicts, err := memcheck.FitCatalog(spec, *gpus, *scale, *fitHid, *layers, *format, nil)
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		out := struct {
			CrossChecks []crossCheck          `json:"cross_checks"`
			Fit         []memcheck.FitVerdict `json:"fit_verdicts"`
		}{checks, verdicts}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("\nfit verdicts at scale %d on %s (%d GPUs, %d B/GPU):\n",
			*scale, *machine, *gpus, spec.MemBytesPerGPU)
		for _, v := range verdicts {
			verdict := "fits"
			if !v.Fits {
				verdict = "NO FIT"
			}
			fmt.Printf("  %-10s %-7s n=%-11d %14d B  %s\n", v.Dataset, v.Strategy, v.N, v.Bytes, verdict)
		}
	}

	if findings > 0 {
		fmt.Fprintf(os.Stderr, "mggcn-memcheck: %d disagreement(s)\n", findings)
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Println("mggcn-memcheck: certified")
	}
}

// gcnStrategies maps the full-batch strategy names to core's.
var gcnStrategies = map[string]core.Strategy{
	"1d-row": core.Strategy1DRow, "1d-col": core.Strategy1DCol, "1.5d": core.Strategy15D,
}

// degrade names the strategy the elastic path continues with at p devices
// (core.Strategy.Degraded); the other names have no fallback.
func degrade(name string, p int) string {
	if s, ok := gcnStrategies[name]; ok {
		return strings.ToLower(s.Degraded(p).String())
	}
	return name
}

// certifyStrategy records one epoch of the named strategy at p devices
// under the allocation meter and cross-checks all three legs per device.
func certifyStrategy(name string, g *graph.Graph, cfg core.Config, p int) []crossCheck {
	cfg.P = p
	meter := sim.NewAllocMeter()

	var (
		tg       *sim.Graph
		dims     []int
		model    func(dev int) memcheck.Model
		env      func(dev int) schedcheck.Env
		poolUsed func(dev int) int64
	)
	switch name {
	case "1d-row", "1d-col", "1.5d":
		cfg.Strategy = gcnStrategies[name]
		cfg.ExecObserver = meter
		tr, err := core.NewTrainer(g, cfg)
		if err != nil {
			log.Fatalf("%s@%d: %v", name, p, err)
		}
		if _, err := tr.RunEpoch(); err != nil {
			log.Fatalf("%s@%d: %v", name, p, err)
		}
		tg, dims = tr.LastGraph(), tr.Dims
		model = func(dev int) memcheck.Model {
			return memcheck.Model{Dims: dims, P: p, Device: dev, Overlap: cfg.Overlap}
		}
		env = func(dev int) schedcheck.Env {
			return memcheck.DeviceEnv(int64(tr.DeviceRows(dev)), int64(tr.MaxTileRows()),
				tr.AdjacencyBytes(dev), dims)
		}
		poolUsed = tr.PoolUsed
	case "gat":
		gm := nn.NewGAT(g, nn.LayerDims(g.FeatDim, cfg.Hidden, 2, g.Classes), 3)
		cfg.ExecObserver = meter
		dist, err := core.NewGATDist(g, gm, cfg)
		if err != nil {
			log.Fatalf("gat@%d: %v", p, err)
		}
		if _, _, err := dist.Forward(); err != nil {
			log.Fatalf("gat@%d: %v", p, err)
		}
		tg, dims = dist.LastGraph(), gm.Dims
		model = func(dev int) memcheck.Model {
			return memcheck.Model{Dims: dims, P: p, Device: dev, Overlap: cfg.Overlap}
		}
		env = func(dev int) schedcheck.Env {
			return memcheck.DeviceEnv(int64(dist.DeviceRows(dev)), int64(dist.MaxTileRows()),
				dist.AdjacencyBytes(dev), dims)
		}
		poolUsed = dist.PoolUsed
	case "sampled":
		scfg := core.DefaultSampledConfig(cfg.Spec, p, 1)
		scfg.Hidden = cfg.Hidden
		scfg.Layers = 2
		scfg.Fanouts = []int{4, 6}
		probe, err := core.NewSampledTrainer(g, scfg)
		if err != nil {
			log.Fatalf("sampled@%d: %v", p, err)
		}
		// Size the batch so every device owns the same number of steps, at
		// least 4 — the closed form's order-independence precondition.
		tv := probe.TrainVertexCount()
		for b := tv; b >= 1; b-- {
			if B := (tv + b - 1) / b; B%p == 0 && B/p >= 4 {
				scfg.Batch = b
				break
			}
		}
		scfg.ExecObserver = meter
		tr, err := core.NewSampledTrainer(g, scfg)
		if err != nil {
			log.Fatalf("sampled@%d: %v", p, err)
		}
		stats, err := tr.RunEpoch()
		if err != nil {
			log.Fatalf("sampled@%d: %v", p, err)
		}
		tg = tr.LastGraph()
		dims = nn.LayerDims(g.FeatDim, scfg.Hidden, scfg.Layers, g.Classes)
		caps := tr.FrontierCapacities()
		steps := stats.Batches / p
		cacheRows := tr.Caches()[0].Slab.Rows
		model = func(dev int) memcheck.Model {
			return memcheck.Model{Dims: dims, P: p, Device: dev, Caps: caps, Depth: tr.Depth(), Steps: steps}
		}
		env = func(dev int) schedcheck.Env { return memcheck.SampledEnv(caps, cacheRows, dims) }
		poolUsed = tr.PoolUsed
	case "cagnet":
		// The baseline is a phantom cost model with no slab access sets:
		// only the resident closed form exists, cross-checked against
		// baseline.CAGNETConfig.MemoryBytes.
		c := baseline.NewCAGNET(cfg.Spec, p, cfg.MemScale, cfg.Hidden, cfg.Layers)
		dims = nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)
		fp, err := memcheck.PeakForm("cagnet", memcheck.Model{Dims: dims, P: p, Device: 0})
		if err != nil {
			log.Fatalf("cagnet@%d: %v", p, err)
		}
		S := int64(cfg.MemScale)
		nn64, m := int64(g.N())*S, g.M()*S
		rows := (nn64 + int64(p) - 1) / int64(p)
		got, err := fp.Resident.Eval(memcheck.CagnetEnv(rows, m/int64(p), dims))
		if err != nil {
			log.Fatalf("cagnet@%d: %v", p, err)
		}
		want := c.MemoryBytes(g)
		return []crossCheck{{
			Strategy: name, P: p, Device: "model",
			ResidentByte: got, PoolByte: want, OK: got == want,
		}}
	}

	live := memcheck.PeakLiveSlabs(tg)
	var out []crossCheck
	for d := 0; d < p; d++ {
		fp, err := memcheck.PeakForm(name, model(d))
		if err != nil {
			log.Fatalf("%s@%d d%d: %v", name, p, d, err)
		}
		if fp.Uncertified != "" {
			log.Fatalf("%s@%d d%d: uncertified: %s", name, p, d, fp.Uncertified)
		}
		e := env(d)
		certified, err := fp.SlabBytes.Eval(e)
		if err != nil {
			log.Fatalf("%s@%d d%d: %v", name, p, d, err)
		}
		resident, err := fp.Resident.Eval(e)
		if err != nil {
			log.Fatalf("%s@%d d%d: %v", name, p, d, err)
		}
		key := fmt.Sprintf("d%d", d)
		c := crossCheck{
			Strategy: name, P: p, Device: key,
			CertifiedByte: certified,
			LivenessByte:  live.Bytes[key],
			MeterByte:     meter.SlabPeakBytes()[key],
			SlabCount:     fp.SlabCount,
			ResidentByte:  resident,
			PoolByte:      poolUsed(d),
		}
		c.OK = c.CertifiedByte == c.LivenessByte && c.CertifiedByte == c.MeterByte &&
			c.SlabCount == live.Count[key] && c.SlabCount == meter.SlabPeakCount()[key] &&
			c.ResidentByte == c.PoolByte
		out = append(out, c)
	}
	return out
}
