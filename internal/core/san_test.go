package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mggcn/internal/fault"
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
	"mggcn/internal/san"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// sanConfigs enumerates the shipped strategy/optimization combinations the
// sanitizer must find clean.
func sanConfigs() map[string]func(cfg *Config) {
	return map[string]func(cfg *Config){
		"1drow":         func(cfg *Config) {},
		"1drow-overlap": func(cfg *Config) { cfg.Overlap = true },
		"1drow-skip":    func(cfg *Config) { cfg.SkipFirstBackward = true; cfg.Overlap = true },
		"1dcol":         func(cfg *Config) { cfg.Strategy = Strategy1DCol },
		"1dcol-overlap": func(cfg *Config) { cfg.Strategy = Strategy1DCol; cfg.Overlap = true },
		"15d":           func(cfg *Config) { cfg.Strategy = Strategy15D; cfg.Overlap = true },
		// GeMM first in every layer (hidden <= the graph's 12 features): a
		// group's last stage reads the root's HW slab, which the next layer's
		// GeMM overwrites with no collective recorded in between.
		"1drow-noswitch": func(cfg *Config) { cfg.Hidden = 12 },
		"15d-noswitch":   func(cfg *Config) { cfg.Strategy = Strategy15D; cfg.Hidden = 12 },
	}
}

// TestTrainerGraphsSanClean runs the static happens-before check over the
// real recorded epoch graphs of every shipped strategy: under the executor's
// full edge contract no declared conflict may be unordered.
func TestTrainerGraphsSanClean(t *testing.T) {
	g := testGraph(t)
	for name, tweak := range sanConfigs() {
		cfg := testConfig(4)
		cfg.Overlap = false
		tweak(&cfg)
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustEpoch(tr)
		if got := san.Check(tr.LastGraph(), tr.LastGraph().HappensBefore(sim.ExecutorEdges)); len(got) != 0 {
			t.Errorf("%s: epoch graph has %d unordered conflicts, e.g. %v", name, len(got), got[0])
		}
	}
}

// TestTrainerFenceRemovalFlagged is the sanitizer's regression teeth: the
// cross-stream fence is a real ordering the trainer graphs depend on (a
// broadcast reads the root's resident buffer that the next layer's GeMM
// overwrites, with no recorded edge between them). Modeling a removed fence
// must surface those conflicts — if this test starts passing with zero
// findings, either the fence became redundant or the declarations went
// blind.
func TestTrainerFenceRemovalFlagged(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	cfg.Overlap = true
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustEpoch(tr)
	if got := san.Check(tr.LastGraph(), tr.LastGraph().HappensBefore(sim.EdgeDeps|sim.EdgeFIFO)); len(got) == 0 {
		t.Fatal("fence-removed model reports no conflicts; the fence regression fixture lost its teeth")
	}
}

// TestLastStageFenceRemovalFlagged: a stage's non-root SpMMs multiply the
// root's block in place. The group's next broadcast fences the root's next
// write behind them, but after the group's last stage only the host-only
// ordering (Graph.After) does. With GeMM first in every layer (hidden <= the
// graph's 12 features), deleting it must leave conflicts under the
// executor's contract, every one of them on a last-stage root's HW/AHW slab.
func TestLastStageFenceRemovalFlagged(t *testing.T) {
	g := testGraph(t)
	for _, st := range []Strategy{Strategy1DRow, Strategy15D} {
		for _, overlap := range []bool{false, true} {
			name := fmt.Sprintf("%v overlap=%t", st, overlap)
			cfg := testConfig(4)
			cfg.Strategy, cfg.Overlap, cfg.Hidden = st, overlap, 12
			tr := mustNewTrainer(t, g, cfg)
			mustEpoch(tr)
			tg := tr.LastGraph()
			roots := map[int]bool{}
			for id := range tg.After {
				roots[tg.Tasks[id].Devices[0]] = true
			}
			clear(tg.After)
			got := san.Check(tg, tg.HappensBefore(sim.ExecutorEdges))
			if len(got) == 0 {
				t.Errorf("%s: no conflicts without the last-stage ordering; it lost its teeth", name)
			}
			for _, c := range got {
				dev, _, _ := tg.Reg.Owner(c.Buf)
				if !roots[dev] || !strings.Contains(c.Name, "/buf/HW") && !strings.Contains(c.Name, "/buf/AHW") {
					t.Errorf("%s: %v is not on a last-stage root's HW/AHW slab (roots %v)", name, c, roots)
				}
			}
		}
	}
}

// TestTrainerLiveBufferBound confirms §4.2 on the recorded graph: at most
// L+3 large slab buffers are ever simultaneously live per device.
func TestTrainerLiveBufferBound(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	cfg.Overlap = true
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustEpoch(tr)
	bound := cfg.Layers + 3
	hw := memcheck.PeakLiveSlabs(tr.LastGraph(), tr.LastGraph().HappensBefore(sim.ExecutorEdges)).Count
	if len(hw) == 0 {
		t.Fatal("no slab accesses declared")
	}
	for dev, n := range hw {
		if n > bound {
			t.Errorf("%s: %d slab buffers live at once, want <= L+3 = %d", dev, n, bound)
		}
	}
}

// TestTrainerShadowClean replays an epoch under the Shadow observer: every
// closure must stay inside its declared access set.
func TestTrainerShadowClean(t *testing.T) {
	g := testGraph(t)
	for name, tweak := range sanConfigs() {
		cfg := testConfig(4)
		cfg.Overlap = false
		tweak(&cfg)
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh := san.NewShadow(tr.Registry())
		tr.Cfg.ExecObserver = sh
		mustEpoch(tr)
		if len(sh.Findings) != 0 {
			t.Errorf("%s: %d undeclared accesses, e.g. %v", name, len(sh.Findings), sh.Findings[0])
		}
	}
}

// TestTrainerShadowCleanUnderRetriedFaults: the shadow replay must
// understand retried tasks. A collective whose first attempts fail
// transiently still moves data exactly once (the gate fires before any
// movement), so its footprint matches its declaration and the Shadow run
// stays finding-free and bit-identical to the unfaulted one.
func TestTrainerShadowCleanUnderRetriedFaults(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	clean := mustEpoch(mustNewTrainer(t, g, cfg)).Loss

	inj := fault.New(fault.Plan{Seed: 11, Transient: &fault.TransientSpec{Every: 2, Failures: 2}})
	fcfg := faultConfig(4, inj)
	tr := mustNewTrainer(t, g, fcfg)
	sh := san.NewShadow(tr.Registry())
	tr.Cfg.ExecObserver = sh
	s := mustEpoch(tr)
	if len(sh.Findings) != 0 {
		t.Fatalf("shadow replay under retried faults: %d undeclared accesses, e.g. %v", len(sh.Findings), sh.Findings[0])
	}
	if s.Loss != clean {
		t.Fatalf("shadowed retried run loss %v != fault-free %v", s.Loss, clean)
	}
	if st := inj.Stats(); st.TransientFailures == 0 {
		t.Fatal("injector never fired under the shadow observer")
	}
}

// stripRootRead is a Shadow that drops the root-block read from the first
// non-root stage SpMM it replays (the first SpMM declaring a BC slab), then
// stops observing: the poison that read picks up reaches every later task.
type stripRootRead struct {
	*san.Shadow
	victim   int // -1 until the victim replays
	stripped []string
}

func (o *stripRootRead) staging(b sim.BufID) bool { return strings.Contains(o.Reg.Name(b), "/buf/BC") }

func (o *stripRootRead) Before(t *sim.Task) {
	if o.victim >= 0 {
		return
	}
	if t.Kind == sim.KindSpMM && slices.ContainsFunc(t.Reads, o.staging) {
		o.victim = t.ID
		t.Reads = slices.DeleteFunc(slices.Clone(t.Reads), func(b sim.BufID) bool {
			if o.staging(b) {
				return false
			}
			o.stripped = append(o.stripped, o.Reg.Name(b))
			return true
		})
	}
	o.Shadow.Before(t)
}

func (o *stripRootRead) After(t *sim.Task) {
	if o.victim < 0 || o.victim == t.ID {
		o.Shadow.After(t)
	}
}

// TestStagedShadowFlagsUndeclaredRootRead: a non-root stage SpMM reads the
// root's block, not its shape-only BC slab, so a declaration without that
// read must fail the shadow replay on exactly that task.
func TestStagedShadowFlagsUndeclaredRootRead(t *testing.T) {
	tr := mustNewTrainer(t, testGraph(t), testConfig(4))
	sh := &stripRootRead{Shadow: san.NewShadow(tr.Registry()), victim: -1}
	tr.Cfg.ExecObserver = sh
	if _, err := tr.RunEpoch(); err == nil {
		t.Fatal("a poisoned stage input left the loss finite")
	}
	if sh.victim < 0 || len(sh.stripped) != 1 {
		t.Fatalf("victim task %d stripped %v, want one non-root stage SpMM losing one read", sh.victim, sh.stripped)
	}
	if f := sh.Findings; len(f) != 1 || f[0].Task != sh.victim || f[0].Kind != "undeclared-read" {
		t.Fatalf("stripping %s from task %d: findings %v, want exactly that task's undeclared read", sh.stripped[0], sh.victim, f)
	}
}

func mustNewTrainer(t *testing.T, g *graph.Graph, cfg Config) *Trainer {
	t.Helper()
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTrainerAdversarialParity: the adversarial replay must stay
// bit-identical to the default executor on correctly ordered graphs —
// per-seed, per-strategy. Run with -race this is the mggcn-san CI job's
// core: worst-case legal orders with real kernels underneath.
//
// Every configuration runs with overlap off and on, at P = 3, 4 and 8 (1.5D
// at even P): the device whose block a group's last stage multiplies in
// place moves with P.
func TestTrainerAdversarialParity(t *testing.T) {
	g := testGraph(t)
	for _, p := range []int{3, 4, 8} {
		for name, tweak := range sanConfigs() {
			for _, overlap := range []bool{false, true} {
				cfg := testConfig(p)
				cfg.Overlap = overlap
				tweak(&cfg)
				// A tweak that pins overlap on runs once; 1.5D needs even P.
				if cfg.Overlap != overlap || p%cfg.Strategy.replicationFactor() != 0 {
					continue
				}
				base := mustNewTrainer(t, g, cfg)
				baseStats := mustEpoch(base)

				for _, seed := range []int64{1, 7} {
					cfgA := cfg
					cfgA.ExecSeed = seed
					cfgA.ExecWorkers = 4
					adv := mustNewTrainer(t, g, cfgA)
					advStats := mustEpoch(adv)
					if baseStats.Loss != advStats.Loss {
						t.Fatalf("%s P=%d overlap=%t seed %d: adversarial loss %v != %v", name, p, overlap, seed, advStats.Loss, baseStats.Loss)
					}
					for l := range base.Weights() {
						if d := tensor.MaxAbsDiff(base.Weights()[l], adv.Weights()[l]); d != 0 {
							t.Fatalf("%s P=%d overlap=%t seed %d: layer %d weights diverge by %g after adversarial replay", name, p, overlap, seed, l, d)
						}
					}
				}
			}
		}
	}
}

// TestForwardOnlySanClean covers the test-path graph builder too.
func TestForwardOnlySanClean(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(3)
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustForward(tr)
	if got := san.Check(tr.LastGraph(), tr.LastGraph().HappensBefore(sim.ExecutorEdges)); len(got) != 0 {
		t.Fatalf("ForwardOnly graph has conflicts: %v", got)
	}
}

// TestGATGraphSanClean checks the distributed GAT forward graph, including
// the attention-tile pseudo-buffer handoff, and its shadow replay.
func TestGATGraphSanClean(t *testing.T) {
	g := testGraph(t)
	model := nn.NewGAT(g, nn.LayerDims(g.FeatDim, 16, 2, g.Classes), 3)
	cfg := testConfig(4)
	cfg.Overlap = true
	dist, err := NewGATDist(g, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustGATForward(dist)
	if got := san.Check(dist.LastGraph(), dist.LastGraph().HappensBefore(sim.ExecutorEdges)); len(got) != 0 {
		t.Fatalf("GAT graph has conflicts: %v", got)
	}
	hw := memcheck.PeakLiveSlabs(dist.LastGraph(), dist.LastGraph().HappensBefore(sim.ExecutorEdges)).Count
	bound := len(model.Dims) - 1 + 3
	for dev, n := range hw {
		if n > bound {
			t.Errorf("%s: %d slab buffers live, want <= %d", dev, n, bound)
		}
	}

	sh := san.NewShadow(dist.Registry())
	cfg2 := testConfig(2)
	cfg2.ExecObserver = sh
	dist2, err := NewGATDist(g, model, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	mustGATForward(dist2)
	if len(sh.Findings) != 0 {
		t.Fatalf("GAT shadow replay: %d undeclared accesses, e.g. %v", len(sh.Findings), sh.Findings[0])
	}
}

// TestGATAdversarialParity: adversarial replay of the GAT forward matches
// the default executor bit for bit.
func TestGATAdversarialParity(t *testing.T) {
	g := testGraph(t)
	model := nn.NewGAT(g, nn.LayerDims(g.FeatDim, 16, 2, g.Classes), 3)
	cfg := testConfig(4)
	cfg.Overlap = true
	base, err := NewGATDist(g, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mustGATForward(base)

	cfg.ExecSeed = 11
	cfg.ExecWorkers = 4
	adv, err := NewGATDist(g, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := mustGATForward(adv)
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("adversarial GAT forward diverges by %g", d)
	}
}

// TestShadowRegistryCoversSlabs sanity-checks the registry contents the
// other tests rely on: every device contributes its L+3 slabs plus weights,
// gradients, and its feature shard.
func TestShadowRegistryCoversSlabs(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(2)
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := tr.Registry()
	want := []string{"d0/buf/HW", "d0/buf/BC1", "d0/buf/BC2", "d0/buf/AHW0", "d0/buf/AHW1",
		"d1/buf/HW", "d0/w0", "d1/g1", "b0/x", "b1/x"}
	names := make(map[string]bool)
	for id := sim.BufID(1); int(id) <= reg.Len(); id++ {
		names[reg.Name(id)] = true
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("registry missing %q (have %d entries)", n, reg.Len())
		}
	}
}
