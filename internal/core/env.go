package core

import (
	"mggcn/internal/comm"
	"mggcn/internal/sim"
)

// execEnv is the execution environment of a recorded task graph: how many
// host workers run the replay, which hooks bracket every replayed closure,
// and the collectives' meter. Config and SampledConfig embed it
// by value, so the fields are set under their own names (cfg.Fault = inj)
// and are read at replay time — a hook installed on tr.Cfg between epochs
// takes effect on the next one.
type execEnv struct {
	// ExecWorkers is the host-side replay parallelism of sim.Graph.Execute:
	// how many recorded task closures may run concurrently (<=0: GOMAXPROCS,
	// 1: serial issue). Results are bit-identical at any setting.
	ExecWorkers int
	// ExecSeed, when nonzero, replays with ExecuteAdversarial seeded by it:
	// worst-case legal orders plus injected start delays, so `-race` runs
	// exercise the executor's ordering rules. Results stay bit-identical to
	// the default replay.
	ExecSeed int64
	// ExecObserver, when set, brackets every replayed closure (internal/san
	// shadow tracking). Forces serial replay; sim.Graph.Stamps do not.
	ExecObserver sim.ExecObserver
	// Fault, when set, brackets every replayed closure with fault-injection
	// callbacks (internal/fault's Injector), under the executor's retry
	// loop for transient failures. A phantom trainer offers its tasks to
	// the hook without closures (sim.Graph.WalkHooks), so recovery runs on
	// structure alone.
	Fault sim.FaultHook
	// CommMeter, when set, counts the words every collective moves — the
	// measured side of internal/schedcheck's cost certification — and, on
	// the sampled pipeline, the extract stage's gather traffic
	// (sim.CollGatherHit / sim.CollGatherMiss).
	CommMeter *comm.Meter
}

// newComm builds a communicator over tg with the dataset's byte scale and
// the environment's meter.
func (e *execEnv) newComm(tg *sim.Graph, memScale int) *comm.Group {
	cg := comm.New(tg)
	cg.BytesScale = int64(memScale)
	cg.Meter = e.CommMeter
	return cg
}

// replayer is the model-independent part of a trainer: the simulated machine
// it records task graphs for, the registry naming every device-resident
// buffer (slabs, weights, gradients, feature shards) for the sanitizer, and
// the most recently replayed graph, kept for post-hoc checking. phantom marks
// a structure-only dataset: its graphs are recorded, bound and declared like
// real ones, and their closures never run.
type replayer struct {
	Machine   *sim.Machine
	reg       *sim.BufRegistry
	lastGraph *sim.Graph
	phantom   bool
}

func newReplayer(spec sim.MachineSpec, p, memScale int, phantom bool) replayer {
	return replayer{Machine: sim.NewMachine(spec, p, memScale), reg: sim.NewBufRegistry(), phantom: phantom}
}

// s maps an actual (scaled-down) row/element count to its full-scale
// equivalent: all task costs are priced at paper scale so that simulated
// epoch times are comparable with the paper's tables (DESIGN.md §2).
func (r *replayer) s(x int) int { return x * r.Machine.MemScale }

// epoch owns one recorded epoch from the empty task graph to the filled
// stats — the one place a graph is started, replayed and scheduled, whatever
// is being trained. body records the epoch's tasks onto tg (collectives
// through cg) and returns its fold, which runs after a successful replay and
// before the schedule: it sums the per-device or per-batch slots the replayed
// closures filled into the stats, applies the numeric guard, and commits
// whatever position the trainer keeps. A replay failure or a fold error voids
// the epoch: nothing was committed, and tg stays reachable via LastGraph. A
// nil fold has nothing to sum. A phantom graph is recorded, folded and
// scheduled like a real one, and its tasks meet the fault hook, but no
// closure runs: this is the one place phantom mode skips work, so every
// recorder binds unconditionally.
func (r *replayer) epoch(env *execEnv, body func(tg *sim.Graph, cg *comm.Group) (fold func(*EpochStats) error)) (*EpochStats, error) {
	tg := sim.NewGraph(r.Machine.Spec, r.Machine.P)
	fold := body(tg, env.newComm(tg, r.Machine.MemScale))
	// Attach the registry, observer and fault hook, so the graph is
	// self-describing for the sanitizer, and replay with the configured
	// executor variant. A failure is the first task's (a *sim.TaskError).
	r.lastGraph = tg
	tg.Reg, tg.Observer, tg.Fault = r.reg, env.ExecObserver, env.Fault
	var err error
	switch {
	case r.phantom: // no storage: the hooks alone decide
		err = tg.WalkHooks()
	case env.ExecSeed != 0:
		err = tg.ExecuteAdversarial(env.ExecWorkers, env.ExecSeed)
	default:
		err = tg.Execute(env.ExecWorkers)
	}
	if err != nil {
		return nil, err
	}
	stats := &EpochStats{}
	if fold != nil {
		if err := fold(stats); err != nil {
			return nil, err
		}
	}
	sched := tg.Run()
	stats.EpochSeconds = sched.Makespan
	stats.KindBusy = sched.KindBusy
	stats.Tasks = tg.Tasks
	stats.Sched = sched
	if sched.Makespan > 0 {
		var util float64
		for _, streams := range sched.DeviceBusy {
			var busy float64
			for _, b := range streams {
				busy += b
			}
			util += busy / sched.Makespan
		}
		stats.OverlapRatio = util / float64(len(sched.DeviceBusy))
	}
	return stats, nil
}

// LastGraph returns the task graph of the most recent replay (nil before the
// first), with Reg attached — the sanitizer's input.
func (r *replayer) LastGraph() *sim.Graph { return r.lastGraph }

// Registry returns the trainer's buffer registry.
func (r *replayer) Registry() *sim.BufRegistry { return r.reg }

// PoolUsed returns device d's live pool bytes — the resident footprint the
// memory certifier's closed form must reproduce exactly.
func (r *replayer) PoolUsed(d int) int64 { return r.Machine.Pools[d].Used() }
