// Command mggcn-schedcheck is the symbolic schedule verifier: it records
// one real epoch graph per shipped strategy and proves three static
// properties without executing a single kernel closure (internal/schedcheck):
//
//   - collective matching: every comm task carries a well-formed collective
//     annotation, and overlapping-but-distinct communicators are
//     happens-before ordered — the deadlock-freedom certificate;
//   - shape-flow typing: symbolic tensor extents propagate through every
//     SpMM/GeMM/elementwise/collective bind and must unify, which catches
//     the 1.5D-style slab-aliasing bug class before any simulation runs;
//   - cost certification: the schedule's annotated communication volume
//     equals the strategy's registered CAGNET-style closed form, and both
//     equal the comm.Meter byte counters measured at issue time, with
//     exact integer equality.
//
// Every strategy is additionally re-verified on its elastic P-1 degradation
// path (the post-device-loss rebuild, with 1.5D degrading to 1D-row at odd
// P), so the schedules produced after a failure are certified too.
//
// Usage:
//
//	go run ./cmd/mggcn-schedcheck                    # verify every strategy
//	go run ./cmd/mggcn-schedcheck -strategy 1.5d -gpus 8
//	go run ./cmd/mggcn-schedcheck -memscale 3        # re-check at S != 1
//
// Exits 0 when every property holds and 1 on any finding.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mggcn/internal/baseline"
	"mggcn/internal/comm"
	"mggcn/internal/core"
	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/schedcheck"
	"mggcn/internal/sim"
)

func main() {
	var (
		machine  = flag.String("machine", "a100", "machine: v100 or a100")
		gpus     = flag.Int("gpus", 4, "number of GPUs (1-8)")
		strategy = flag.String("strategy", "all", "1d-row, 1d-col, 1.5d, gat, cagnet, or all")
		hidden   = flag.Int("hidden", 16, "hidden layer width")
		layers   = flag.Int("layers", 2, "layer count")
		n        = flag.Int("n", 160, "synthetic vertex count")
		degree   = flag.Int("degree", 8, "synthetic average degree")
		features = flag.Int("features", 12, "synthetic feature width")
		classes  = flag.Int("classes", 4, "synthetic class count")
		memScale = flag.Int("memscale", 1, "dataset scale factor S")
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

	g := gen.Generate("schedcheck", gen.DefaultBTER(*n, float64(*degree), 99), *features, *classes, false)

	names := []string{"1d-row", "1d-col", "1.5d", "gat", "cagnet"}
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

	cfg := core.DefaultConfig(spec, *gpus, *memScale)
	cfg.Hidden = *hidden
	cfg.Layers = *layers

	findings := 0
	for _, name := range names {
		findings += verifyStrategy(name, g, cfg, *gpus)
		// The elastic degradation path: the trainer rebuilds at P-1 after a
		// device loss, downgrading strategies that no longer validate.
		if p := *gpus - 1; p >= 1 && name != "cagnet" {
			findings += verifyStrategy(degrade(name, p), g, cfg, p)
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "mggcn-schedcheck: %d finding(s)\n", findings)
		os.Exit(1)
	}
	fmt.Println("mggcn-schedcheck: certified")
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

// verifyStrategy records one epoch of the named strategy at p devices and
// runs all three passes. Returns the finding count.
func verifyStrategy(name string, g *graph.Graph, cfg core.Config, p int) int {
	cfg.P = p
	meter := comm.NewMeter()
	cfg.CommMeter = meter

	var (
		tg   *sim.Graph
		dims []int
	)
	switch name {
	case "1d-row", "1d-col", "1.5d":
		cfg.Strategy = gcnStrategies[name]
		tr, err := core.NewTrainer(g, cfg)
		if err != nil {
			log.Fatalf("%s@%d: %v", name, p, err)
		}
		if _, err := tr.RunEpoch(); err != nil {
			log.Fatalf("%s@%d: %v", name, p, err)
		}
		tg, dims = tr.LastGraph(), tr.Dims
	case "gat":
		model := nn.NewGAT(g, nn.LayerDims(g.FeatDim, cfg.Hidden, 2, g.Classes), 3)
		dist, err := core.NewGATDist(g, model, cfg)
		if err != nil {
			log.Fatalf("gat@%d: %v", p, err)
		}
		if _, _, err := dist.Forward(); err != nil {
			log.Fatalf("gat@%d: %v", p, err)
		}
		tg, dims = dist.LastGraph(), model.Dims
	case "cagnet":
		c := baseline.NewCAGNET(cfg.Spec, p, cfg.MemScale, cfg.Hidden, cfg.Layers)
		tg = c.EpochGraph(g)
		dims = nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)
		meter = nil // the baseline prices its own graph; no meter leg
	}

	label := fmt.Sprintf("%s@%d", name, p)
	findings := 0
	for _, f := range schedcheck.Check(tg) {
		fmt.Printf("%s: %v\n", label, f)
		findings++
	}

	vol, err := schedcheck.VolumeForm(name, schedcheck.Model{
		Dims: dims, OrderSwitch: cfg.OrderSwitch, SkipFirstBackward: cfg.SkipFirstBackward,
	})
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	env := schedcheck.EnvFor(g.N(), p, int64(cfg.MemScale), dims)
	for _, f := range schedcheck.CertifyVolume(tg, vol, env) {
		fmt.Printf("%s: %v\n", label, f)
		findings++
	}

	if meter != nil {
		annotated := schedcheck.AnnotatedWords(tg)
		for _, op := range sim.CollOps() {
			if got, want := meter.Words(op), annotated[op]; got != want {
				fmt.Printf("%s: %s: meter measured %d words but annotations claim %d\n", label, op, got, want)
				findings++
			}
		}
	}
	if findings == 0 {
		fmt.Printf("%s: certified (%d tasks)\n", label, len(tg.Tasks))
	}
	return findings
}
