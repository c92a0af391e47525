package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"mggcn/internal/core"
	"mggcn/internal/fault"
	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// scenario is one row of the chaos matrix: did the run survive (recover and
// match the fault-free result), abort (fail with a clean error), or corrupt
// (finish with wrong or non-finite numbers)? Crash and retried-transient
// runs must survive, exhausted-retry runs must abort cleanly (except the
// sampled pipeline, whose suspect-eviction rule survives them at P-1);
// nothing may ever corrupt.
type scenario struct {
	Strategy string  `json:"strategy"`
	Fault    string  `json:"fault"`
	Seed     int64   `json:"seed"`
	Outcome  string  `json:"outcome"` // survive | abort | corrupt
	Expected string  `json:"expected"`
	Detail   string  `json:"detail,omitempty"`
	FinalP   int     `json:"final_p,omitempty"`
	Epochs   int     `json:"effective_epochs,omitempty"`
	Loss     float64 `json:"final_loss,omitempty"`

	Events   []core.RecoveryEvent `json:"recovery_events,omitempty"`
	Injected fault.Stats          `json:"injected"`
}

// faultKinds in sweep order. "transient" stays under the retry budget;
// "transient-exhaust" exceeds it.
var faultKinds = []string{"crash", "transient", "transient-exhaust", "straggler", "poison"}

// sampledFaultKinds adds "flaky-sampler" — a transient sampler-stage
// failure only the minibatch pipeline can experience.
var sampledFaultKinds = []string{"crash", "flaky-sampler", "transient", "transient-exhaust", "straggler", "poison"}

// kindsFor lists the fault kinds a strategy kind sweeps. The GAT forward has
// no numeric-recovery loop to exercise, so its poison coverage lives in the
// GCN scenarios.
func kindsFor(k kind) []string {
	switch k {
	case sampled:
		return sampledFaultKinds
	case gat:
		return faultKinds[:len(faultKinds)-1]
	default:
		return faultKinds
	}
}

// expectation is the contract a scenario is judged against: everything must
// survive except what the strategy cannot recover from — exhausted retries
// (the sampled pipeline's suspect-eviction rule survives even those, at
// P-1) and, on the forward-only GAT path with no elastic loop, a lost device.
func expectation(k kind, fk string) string {
	if (fk == "transient-exhaust" && k != sampled) || (fk == "crash" && k == gat) {
		return "abort"
	}
	return "survive"
}

// bitExact lists the faults recovered at full strength, after which the run
// must be bit-identical to fault-free (retries move data exactly once; poison
// and flaky-sampler re-runs start from a snapshot). The others cost a device
// and must finish at P-1.
var bitExact = map[string]bool{"transient": true, "straggler": true, "poison": true, "flaky-sampler": true}

// chaosMatrix lays out the scenarios in (strategy, fault, seed) order —
// strategy in list order, fault in sweep order — so two runs of the same
// invocation emit the same JSON. only narrows to one fault kind ("all":
// every kind the strategy sweeps).
func chaosMatrix(strats []*strategy, only string, seeds int) []scenario {
	var out []scenario
	for _, st := range strats {
		for _, fk := range kindsFor(st.kind) {
			if only != "all" && only != fk {
				continue
			}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				out = append(out, scenario{Strategy: st.name, Fault: fk, Seed: seed, Expected: expectation(st.kind, fk)})
			}
		}
	}
	return out
}

// chaosPlan builds the injector plan for one fault kind at one seed. On the
// sampled pipeline the crash and the straggler scope to the sampler stream —
// the failure mode the full-batch matrix cannot reach.
func chaosPlan(k kind, fk string, seed int64, p int) fault.Plan {
	pl := fault.Plan{Seed: seed}
	var onSampler *sim.StreamID // nil: any stream
	if k == sampled {
		onSampler = fault.OnStream(sim.StreamSample)
	}
	switch fk {
	case "crash":
		// The device dies in the backward pass; on the sampler stream when
		// there is one; on its first task of any kind in the forward-only
		// GAT graph, which has no backward labels.
		on := map[kind]string{fullBatch: "bwd", sampled: "sample", gat: ""}[k]
		pl.Crash = &fault.CrashSpec{Device: p - 1, OnLabel: on, Stream: onSampler}
	case "flaky-sampler":
		pl.TransientTask = &fault.TransientTaskSpec{Device: 0, OnLabel: "s1/sample", Failures: 1, Stream: onSampler}
	case "transient":
		pl.Transient = &fault.TransientSpec{Every: 2, Failures: 2}
	case "transient-exhaust":
		pl.Transient = &fault.TransientSpec{Every: 2, Failures: 100}
	case "straggler":
		pl.Straggler = &fault.StragglerSpec{Device: 1, Delay: 50 * time.Microsecond, Every: 5, Stream: onSampler}
	case "poison":
		// The last forward GeMM feeds the logits directly; step 0's on the
		// sampled path.
		label := map[kind]string{fullBatch: "fwd1/gemm", sampled: "s0/fwd1/gemm"}[k]
		pl.Poison = &fault.PoisonSpec{Label: label, Stage: -1, Device: 0, Occurrence: 1}
	}
	return pl
}

// chaosPass runs the matrix; every deviation from a scenario's expectation
// is a finding (unless -expect=false makes the pass report-only).
func (v *verifier) chaosPass() string {
	if v.cfg.P < 2 {
		fatalf("chaos needs at least 2 GPUs (a 1-GPU machine has no survivors)")
	}
	v.report.Epochs = v.epochs
	v.report.Scenarios = chaosMatrix(v.selected(fullBatch, gat, sampled), v.faultKind, v.seeds)
	if len(v.report.Scenarios) == 0 {
		fatalf("no %q scenario for -strategy %s (faults: %s)", v.faultKind, v.only, strings.Join(sampledFaultKinds, ", "))
	}
	var run func(*scenario)
	for i := range v.report.Scenarios {
		sc := &v.report.Scenarios[i]
		if i == 0 || sc.Strategy != v.report.Scenarios[i-1].Strategy {
			run = v.chaosRunner(lookup(sc.Strategy))
		}
		run(sc)
		if sc.Outcome != sc.Expected && v.expect {
			v.finding("%s/%s/seed %d: %s, expected %s: %s", sc.Strategy, sc.Fault, sc.Seed, sc.Outcome, sc.Expected, sc.Detail)
		}
	}
	return fmt.Sprintf("%d scenarios as expected", len(v.report.Scenarios))
}

// chaosRunner prepares one strategy's fault-free reference and returns the
// function that runs a scenario against it.
func (v *verifier) chaosRunner(st *strategy) func(*scenario) {
	p := v.cfg.P
	// Small model, real math; the first-layer backward stays so a "bwd"
	// crash has a task to land on.
	cfg := v.cfg
	cfg.LR, cfg.Seed, cfg.SkipFirstBackward = 0.01, 7, false
	cfg.Strategy = st.spmm
	if st.kind == gat {
		return v.gatChaos(cfg)
	}

	train := chaosTrainer(st.kind, cfg, v.graph, v.epochs)
	cleanRun, err := train(nil)
	if err != nil {
		fatalf("chaos baseline %s: %v", st.name, err)
	}
	clean := cleanRun.losses()
	return func(sc *scenario) {
		inj := fault.New(chaosPlan(st.kind, sc.Fault, sc.Seed, p))
		res, err := train(inj)
		losses, finalP := res.losses(), res.FinalP
		sc.Injected = inj.Stats()
		sc.FinalP, sc.Epochs, sc.Events = finalP, len(losses), res.Events
		if len(losses) > 0 {
			sc.Loss = losses[len(losses)-1]
		}
		switch {
		case err != nil:
			sc.Outcome = "abort"
			sc.Detail = err.Error()
		case len(losses) != v.epochs || math.IsNaN(sc.Loss) || math.IsInf(sc.Loss, 0):
			sc.Outcome = "corrupt"
			sc.Detail = fmt.Sprintf("finished %d/%d epochs, final loss %v", len(losses), v.epochs, sc.Loss)
		case bitExact[sc.Fault]:
			sc.Outcome = "survive"
			for e := range clean {
				if losses[e] != clean[e] { // vet:ok floateq: recovered-fault parity is bit-exact by contract
					sc.Outcome = "corrupt"
					sc.Detail = fmt.Sprintf("epoch %d loss %v != fault-free %v", e, losses[e], clean[e])
					break
				}
			}
		case finalP == p-1: // degraded but alive, one device down
			sc.Outcome = "survive"
		default:
			sc.Outcome = "corrupt"
			sc.Detail = fmt.Sprintf("expected group of %d after device loss, got %d", p-1, finalP)
		}
	}
}

// elasticRun is what a chaos scenario keeps of one elastic run, whichever
// trainer ran it.
type elasticRun struct {
	Stats  []*core.EpochStats
	Events []core.RecoveryEvent
	FinalP int
}

// losses is the run's per-effective-epoch loss series.
func (r elasticRun) losses() []float64 {
	var out []float64
	for _, s := range r.Stats {
		out = append(out, s.Loss)
	}
	return out
}

// chaosTrainer returns the elastic loop of trainer family k on g for the
// given effective epochs, under inj as the fault hook (nil: fault-free). The
// sampled pipeline runs small fanouts with pipelining on; cfg's width, seed,
// learning rate and executor workers carry over.
func chaosTrainer(k kind, cfg core.Config, g *graph.Graph, epochs int) func(inj *fault.Injector) (elasticRun, error) {
	if k == fullBatch {
		return func(inj *fault.Injector) (elasticRun, error) {
			c := cfg
			if inj != nil {
				c.Fault = inj
			}
			res, err := core.TrainElastic(g, c, epochs)
			if res == nil {
				return elasticRun{}, err
			}
			return elasticRun{res.Stats, res.Events, res.FinalP}, err
		}
	}
	scfg := core.DefaultSampledConfig(cfg.Spec, cfg.P, 1)
	scfg.Hidden, scfg.Layers, scfg.Fanouts = cfg.Hidden, 2, []int{4, 6}
	scfg.Batch, scfg.CacheFrac, scfg.LR, scfg.Seed = 8, 0.5, cfg.LR, cfg.Seed
	scfg.ExecWorkers = cfg.ExecWorkers
	return func(inj *fault.Injector) (elasticRun, error) {
		c := scfg
		if inj != nil {
			c.Fault = inj
		}
		res, err := core.TrainSampledElastic(g, c, epochs)
		if res == nil {
			return elasticRun{}, err
		}
		return elasticRun{res.Stats, res.Events, res.FinalP}, err
	}
}

// gatChaos runs scenarios on the distributed GAT forward: retried faults
// must leave the logits bit-identical, and whatever it cannot retry must
// surface as a clean abort, never as silent garbage.
func (v *verifier) gatChaos(cfg core.Config) func(*scenario) {
	model := nn.NewGAT(v.graph, nn.LayerDims(v.graph.FeatDim, cfg.Hidden, 2, v.graph.Classes), 3)
	forward := func(c core.Config) (*tensor.Dense, error) {
		d, err := core.NewGATDist(v.graph, model, c)
		if err != nil {
			fatalf("chaos gat: %v", err)
		}
		logits, _, err := d.Forward()
		return logits, err
	}
	clean, err := forward(cfg)
	if err != nil {
		fatalf("chaos baseline gat: %v", err)
	}
	return func(sc *scenario) {
		inj := fault.New(chaosPlan(gat, sc.Fault, sc.Seed, v.cfg.P))
		c := cfg
		c.Fault = inj
		logits, err := forward(c)
		sc.Injected = inj.Stats()
		switch {
		case err != nil:
			sc.Outcome = "abort"
			sc.Detail = err.Error()
		case tensor.MaxAbsDiff(logits, clean) != 0:
			sc.Outcome = "corrupt"
			sc.Detail = fmt.Sprintf("logits diverge from fault-free by %g", tensor.MaxAbsDiff(logits, clean))
		default:
			sc.Outcome = "survive"
		}
	}
}
