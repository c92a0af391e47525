package main

import (
	"fmt"

	"mggcn/internal/baseline"
	"mggcn/internal/comm"
	"mggcn/internal/core"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// kind is the trainer family a strategy records with; passes select the
// kinds they certify.
type kind int

const (
	fullBatch kind = iota // core.Trainer under one of the SpMM strategies
	gat                   // core.GATDist forward
	sampled               // core.SampledTrainer minibatch pipeline
)

// strategy is one row of the ordered strategy list.
type strategy struct {
	name string
	kind kind
	spmm core.Strategy // fullBatch only
	// baseline, when set, is the configuration a baseline system records
	// its full-batch epoch under. A baseline has no elastic path.
	baseline func(core.Config) core.Config
}

// strategies is the one strategy list, in report order: core's full-batch
// SpMM strategies, the other trainer families, then CAGNET, which is the
// full-batch trainer with the paper's optimisations off.
var strategies = func() []strategy {
	var out []strategy
	for _, s := range core.Strategies() {
		out = append(out, strategy{s.Name(), fullBatch, s, nil})
	}
	return append(out, strategy{"gat", gat, 0, nil}, strategy{"sampled", sampled, 0, nil},
		strategy{"cagnet", fullBatch, core.Strategy1DRow, baseline.CAGNET})
}()

// form is the name the closed forms (schedcheck.VolumeForm,
// memcheck.PeakForm) certify the strategy's recording under: the SpMM
// strategy it records with on the full-batch path, its own name otherwise.
func (s *strategy) form() string {
	if s.kind == fullBatch {
		return s.spmm.Name()
	}
	return s.name
}

func lookup(name string) *strategy {
	for i := range strategies {
		if strategies[i].name == name {
			return &strategies[i]
		}
	}
	return nil
}

// degraded returns the strategy the elastic path continues with at p
// devices: core.Strategy.Degraded for the SpMM strategies (1.5D falls back
// to 1D-row at odd p), the strategy itself otherwise.
func (s *strategy) degraded(p int) *strategy {
	if s.kind == fullBatch {
		return lookup(s.spmm.Degraded(p).Name())
	}
	return s
}

// selected lists the strategies of the given kinds that -strategy admits.
// Naming one the running pass does not cover is an error, except under
// `all`, where each pass takes what applies to it.
func (v *verifier) selected(kinds ...kind) []*strategy {
	var out []*strategy
	for i := range strategies {
		s := &strategies[i]
		if v.only != "all" && v.only != s.name {
			continue
		}
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, s)
			}
		}
	}
	if len(out) == 0 && !v.all {
		fatalf("strategy %q has no %s pass", v.only, v.pass.Pass)
	}
	return out
}

// rows expands strategies into the (strategy, P) rows a certifying pass
// covers: each at the full group, then — where the elastic path can rebuild
// it — its degradation at P-1.
func (v *verifier) rows(strats []*strategy) []*subject {
	var out []*subject
	for _, s := range strats {
		out = append(out, v.subject(s, v.cfg.P))
		if p := v.cfg.P - 1; p >= 1 && s.baseline == nil && (s.kind == fullBatch || s.kind == gat) {
			out = append(out, v.subject(s.degraded(p), p))
		}
	}
	return out
}

// observerFor builds a replay observer over a fresh trainer's own registry.
type observerFor func(*sim.BufRegistry) sim.ExecObserver

// outputs is what one replayed epoch leaves behind, compared bit for bit
// between replays: the loss and the trained weights (GCN) or logits (GAT).
type outputs struct {
	loss    float64
	tensors []*tensor.Dense
}

// subject is one strategy recorded once at one group size — the input every
// pass consumes.
type subject struct {
	*strategy
	p     int
	cfg   core.Config // what the full-batch and GAT recordings ran under
	graph *sim.Graph  // the recorded epoch, registry attached
	dims  []int
	// comm and alloc metered the recording.
	comm  *comm.Meter
	alloc *sim.AllocMeter
	base  outputs

	// rerun replays one epoch on a fresh trainer: adversarially under seed
	// when nonzero, and under the observer observe builds from the fresh
	// trainer's registry when non-nil.
	rerun func(seed int64, observe observerFor) outputs

	// memcheck's per-device closed-form inputs and the pool's ground truth.
	model    func(dev int) memcheck.Model
	poolUsed func(dev int) int64

	// hb is the executor-contract closure of graph, built once and shared by
	// the san static pass and the liveness the memcheck pass compares.
	hb   *sim.HB
	live memcheck.LiveStats
}

func (s *subject) label() string { return fmt.Sprintf("%s@%d", s.name, s.p) }

// must aborts the invocation on an error no pass can turn into a finding.
func (s *subject) must(err error) {
	if err != nil {
		fatalf("%s: %v", s.label(), err)
	}
}

// partitionedRun is what the full-batch trainer and the GAT forward share:
// the row partition memcheck's device environment is read from.
type partitionedRun interface {
	LastGraph() *sim.Graph
	DeviceRows(d int) int
	MaxTileRows() int
	AdjacencyBytes(d int) int64
	PoolUsed(d int) int64
}

// subject records strategy st at p devices, once per invocation.
func (v *verifier) subject(st *strategy, p int) *subject {
	s := &subject{strategy: st, p: p}
	if memo, ok := v.subjects[s.label()]; ok {
		return memo
	}
	v.subjects[s.label()] = s
	must := s.must
	g := v.graph
	cfg := v.cfg
	cfg.P = p
	s.comm, s.alloc = comm.NewMeter(), sim.NewAllocMeter()
	layers := cfg.Layers
	if st.kind == gat || st.kind == sampled {
		layers = 2 // what the GAT model and the sampled fanouts below are built for
	}
	s.dims = nn.LayerDims(g.FeatDim, cfg.Hidden, layers, g.Classes)

	// record replays one epoch of a partitioned (full-batch or GAT) run on a
	// fresh trainer, the observer built from that trainer's own registry.
	var record func(c core.Config, observe observerFor) (partitionedRun, outputs)
	switch st.kind {
	case fullBatch:
		cfg.Strategy = st.spmm
		if st.baseline != nil {
			cfg = st.baseline(cfg)
		}
		record = func(c core.Config, observe observerFor) (partitionedRun, outputs) {
			tr, err := core.NewTrainer(g, c)
			must(err)
			if observe != nil {
				tr.Cfg.ExecObserver = observe(tr.Registry())
			}
			stats, err := tr.RunEpoch()
			must(err)
			return tr, outputs{stats.Loss, tr.Weights()}
		}
	case gat:
		model := nn.NewGAT(g, s.dims, 3)
		record = func(c core.Config, observe observerFor) (partitionedRun, outputs) {
			dist, err := core.NewGATDist(g, model, c)
			must(err)
			if observe != nil {
				dist.Cfg.ExecObserver = observe(dist.Registry())
			}
			logits, _, err := dist.Forward()
			must(err)
			return dist, outputs{tensors: []*tensor.Dense{logits}}
		}
	case sampled:
		scfg := core.DefaultSampledConfig(cfg.Spec, p, 1)
		scfg.Hidden = cfg.Hidden
		scfg.Layers = 2
		scfg.Fanouts = []int{4, 6}
		probe, err := core.NewSampledTrainer(g, scfg)
		must(err)
		// Size the batch so every device owns the same number of steps, at
		// least 4 — the closed form's order-independence precondition.
		tv := probe.TrainVertexCount()
		for b := tv; b >= 1; b-- {
			if B := (tv + b - 1) / b; B%p == 0 && B/p >= 4 {
				scfg.Batch = b
				break
			}
		}
		scfg.CommMeter, scfg.ExecObserver = s.comm, s.alloc
		tr, err := core.NewSampledTrainer(g, scfg)
		must(err)
		stats, err := tr.RunEpoch()
		must(err)
		s.graph = tr.LastGraph()
		caps, steps := tr.FrontierCapacities(), stats.Batches/p
		cacheRows := int64(tr.Caches()[0].Slab.Rows)
		s.model = func(dev int) memcheck.Model {
			return memcheck.Model{Dims: s.dims, P: p, Device: dev,
				Caps: caps, CacheRows: cacheRows, Depth: tr.Depth(), Steps: steps}
		}
		s.poolUsed = tr.PoolUsed
	}
	s.cfg = cfg
	if record != nil {
		metered := cfg
		metered.CommMeter, metered.ExecObserver = s.comm, s.alloc
		var run partitionedRun
		run, s.base = record(metered, nil)
		s.graph = run.LastGraph()
		s.model = func(dev int) memcheck.Model {
			return memcheck.Model{Dims: s.dims, P: p, Device: dev, Overlap: cfg.Overlap,
				Rows: int64(run.DeviceRows(dev)), TileRows: int64(run.MaxTileRows()), AdjBytes: run.AdjacencyBytes(dev)}
		}
		s.poolUsed = run.PoolUsed
		s.rerun = func(seed int64, observe observerFor) outputs {
			c := cfg
			if seed != 0 {
				c.ExecSeed, c.ExecWorkers = seed, 4
			}
			_, out := record(c, observe)
			return out
		}
	}
	s.hb = s.graph.HappensBefore(sim.ExecutorEdges)
	s.live = memcheck.PeakLiveSlabs(s.graph, s.hb)
	v.report.Subjects = append(v.report.Subjects, subjectReport{st.name, p, len(s.graph.Tasks)})
	return s
}
