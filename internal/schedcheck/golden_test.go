package schedcheck_test

import (
	"strings"
	"testing"

	"mggcn/internal/baseline"
	"mggcn/internal/comm"
	"mggcn/internal/core"
	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/schedcheck"
	"mggcn/internal/sim"
)

// The golden certification contract: for every shipped strategy, the epoch
// schedule the trainer records must (a) pass collective matching and shape
// typing, and (b) move exactly the communication volume the strategy's
// closed form predicts — checked three ways against each other with exact
// integer equality: annotation-derived words, the closed form, and the
// comm.Meter counters measured independently at collective-issue time.
//
// N = 61 is deliberately not divisible by any tested P: partition
// unevenness must cancel in the forms (Σ_j rows_j = N).

func goldenGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Generate("golden", gen.DefaultBTER(61, 6, 99), 12, 4, false)
}

func certifyTrainer(t *testing.T, g *graph.Graph, cfg core.Config) {
	t.Helper()
	meter := comm.NewMeter()
	cfg.CommMeter = meter
	tr, err := core.NewTrainer(g, cfg)
	if err != nil {
		t.Fatalf("NewTrainer: %v", err)
	}
	if _, err := tr.RunEpoch(); err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	tg := tr.LastGraph()

	if fs := schedcheck.Check(tg); len(fs) != 0 {
		t.Fatalf("structural findings: %v", fs)
	}

	strat := strings.ToLower(cfg.Strategy.String())
	model := schedcheck.Model{N: g.N(), P: cfg.P, S: cfg.MemScale,
		Dims: tr.Dims, SkipFirstBackward: cfg.SkipFirstBackward,
	}
	vol, err := schedcheck.VolumeForm(strat, model)
	if err != nil {
		t.Fatalf("VolumeForm: %v", err)
	}
	if fs := schedcheck.CertifyVolume(tg, vol, model); len(fs) != 0 {
		t.Fatalf("cost findings: %v", fs)
	}

	// Third leg: the meter counted words at issue time from the actual
	// buffer extents, independently of the annotations.
	annotated := schedcheck.AnnotatedWords(tg)
	var total int64
	for _, op := range sim.CollOps() {
		if got, want := meter.Words(op), annotated[op]; got != want {
			t.Fatalf("%s: meter %d words != annotated %d", op, got, want)
		}
		total += annotated[op]
	}
	// Guard against a vacuous pass: any multi-device epoch moves data.
	if cfg.P > 1 && total == 0 {
		t.Fatalf("P=%d epoch recorded zero communication words", cfg.P)
	}
}

func TestGoldenCertification(t *testing.T) {
	g := goldenGraph(t)
	cases := []struct {
		name     string
		p        int
		strategy core.Strategy
		scale    int
		mutate   func(*core.Config)
	}{
		{"1d-row-p1", 1, core.Strategy1DRow, 1, nil},
		{"1d-row-p3", 3, core.Strategy1DRow, 1, nil},
		{"1d-row-p4-scaled", 4, core.Strategy1DRow, 3, nil},
		// Hidden <= the graph's 12 features: GeMM first in every layer.
		{"1d-row-p4-no-opts", 4, core.Strategy1DRow, 1, func(c *core.Config) {
			c.Hidden, c.SkipFirstBackward, c.Overlap = 12, false, false
		}},
		{"1d-col-p2", 2, core.Strategy1DCol, 1, nil},
		{"1d-col-p3-scaled", 3, core.Strategy1DCol, 2, nil},
		{"1.5d-p2", 2, core.Strategy15D, 1, nil}, // blocks=1: no broadcasts, pair reduction only
		{"1.5d-p4", 4, core.Strategy15D, 1, nil},
		{"1.5d-p4-scaled", 4, core.Strategy15D, 2, func(c *core.Config) { c.Hidden = 12 }},
		// CAGNET: 1D-row stage-synchronous, every backward SpMM, natural order.
		{"cagnet-p3-scaled", 3, core.Strategy1DRow, 2, func(c *core.Config) { *c = baseline.CAGNET(*c) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig(sim.DGXV100(), tc.p, tc.scale)
			cfg.Hidden, cfg.Layers = 16, 2
			cfg.Strategy = tc.strategy
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			certifyTrainer(t, g, cfg)
		})
	}
}

// The elastic degradation paths: after losing a device the trainer rebuilds
// at P-1 with the strategy degraded when it no longer validates (1.5D needs
// even P). The degraded schedules must certify like any other.
func TestGoldenCertificationDegraded(t *testing.T) {
	g := goldenGraph(t)
	cases := []struct {
		name string
		p    int
		from core.Strategy
	}{
		{"1d-row-p4-to-p3", 3, core.Strategy1DRow},
		{"1d-col-p4-to-p3", 3, core.Strategy1DCol},
		{"1.5d-p4-to-p3", 3, core.Strategy15D}, // odd P: degrades to 1D-row
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig(sim.DGXV100(), tc.p, 1)
			cfg.Hidden, cfg.Layers = 16, 2
			cfg.Strategy = tc.from.Degraded(tc.p)
			certifyTrainer(t, g, cfg)
		})
	}
}

func TestGoldenCertificationGAT(t *testing.T) {
	g := goldenGraph(t)
	cfg := core.DefaultConfig(sim.DGXV100(), 3, 1)
	cfg.Hidden, cfg.Layers = 16, 2
	meter := comm.NewMeter()
	cfg.CommMeter = meter
	model := nn.NewGAT(g, nn.LayerDims(g.FeatDim, cfg.Hidden, 2, g.Classes), 3)
	dist, err := core.NewGATDist(g, model, cfg)
	if err != nil {
		t.Fatalf("NewGATDist: %v", err)
	}
	if _, _, err := dist.Forward(); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	tg := dist.LastGraph()
	if fs := schedcheck.Check(tg); len(fs) != 0 {
		t.Fatalf("structural findings: %v", fs)
	}
	form := schedcheck.Model{N: g.N(), P: cfg.P, S: cfg.MemScale, Dims: model.Dims}
	vol, err := schedcheck.VolumeForm("gat", form)
	if err != nil {
		t.Fatalf("VolumeForm: %v", err)
	}
	if fs := schedcheck.CertifyVolume(tg, vol, form); len(fs) != 0 {
		t.Fatalf("cost findings: %v", fs)
	}
	annotated := schedcheck.AnnotatedWords(tg)
	for _, op := range sim.CollOps() {
		if got, want := meter.Words(op), annotated[op]; got != want {
			t.Fatalf("%s: meter %d words != annotated %d", op, got, want)
		}
	}
}
