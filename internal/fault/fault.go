// Package fault is the deterministic, seeded fault injector for MG-GCN's
// task-graph execution. The full-batch pipeline of §4.1-4.3 assumes every
// device and every broadcast succeeds; at production scale partial failure
// is the common case, and the recovery machinery (the executor's retry
// loop, internal/core elastic training) is only trustworthy if its failure
// paths are exercised on purpose. An Injector is a sim.FaultHook on the
// task graph: BeforeTask can crash a device permanently mid-epoch
// (*sim.DeviceLostError), fail a task transiently (*sim.TransientTaskError),
// delay a device's tasks (straggler) and fail collective attempts
// transiently, driving the executor's retry/backoff loop; AfterTask poisons
// a task's declared output buffers with NaNs. The hooks decide on the task
// alone, so a structure-only replay (sim.Graph.WalkHooks) meets the same
// faults as a real one; a poison, which needs data, fails the task there.
//
// Every decision is a pure function of the plan's seed and record-time
// identifiers (task IDs, labels, devices) — never of replay interleaving or
// wall time — so a faulted run is reproducible at any executor worker
// count, and runs whose transient faults are all retried successfully stay
// bit-identical to fault-free runs.
package fault

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"mggcn/internal/rng"
	"mggcn/internal/sim"
)

// OnStream scopes a spec to tasks recorded on one stream — the structured
// alternative to label substrings (a pointer because StreamCompute is the
// zero StreamID; nil means "any stream").
func OnStream(s sim.StreamID) *sim.StreamID { return &s }

// OnKind scopes a spec to tasks of one kind (nil means "any kind"). Test
// support: the trainers' tests scope their faults with it.
func OnKind(k sim.Kind) *sim.Kind { return &k }

// matchStreamKind is the structured half of every spec's task filter: a nil
// selector matches anything, a non-nil one must equal the task's recorded
// stream/kind. Structured fields compose with the label fallback — a spec
// matches when every selector it sets matches.
func matchStreamKind(t *sim.Task, stream *sim.StreamID, kind *sim.Kind) bool {
	if stream != nil && t.Stream != *stream {
		return false
	}
	if kind != nil && t.Kind != *kind {
		return false
	}
	return true
}

// CrashSpec kills one device permanently: the first task on Device matching
// the spec's filters — label substring OnLabel ("" matches any), plus the
// optional structured Stream/Kind selectors — after skipping the first
// After matches, fails with *sim.DeviceLostError instead of running. From
// then on every task on that device fails the same way until the machinery
// that removed the device acknowledges the loss (Injector.ObserveRemoval) —
// a crashed GPU does not come back, and renumbered survivor graphs must not
// inherit the dead index.
type CrashSpec struct {
	Device  int
	OnLabel string
	After   int
	Stream  *sim.StreamID
	Kind    *sim.Kind
}

// TransientSpec fails collective attempts transiently: a task carrying a
// collective annotation (Task.Coll) is selected when hash(seed, taskID) %
// Every == 0 (Every <= 1 selects all), and its first Failures attempts fail
// with a sim.Transient error before attempts pass. With Failures below the
// executor's 4 attempts every failure is retried away and the run is
// bit-identical to fault-free; with Failures >= 4 the collective gives up
// (*sim.GiveUpError) and the epoch aborts.
type TransientSpec struct {
	Every    int
	Failures int
}

// StragglerSpec delays every Every-th matching bound task on Device by
// Delay before its closure runs (Every <= 1 delays all) — the slow-device
// scenario. The optional Stream/Kind selectors narrow which tasks count
// (e.g. only the sampler stream). Pure latency: results must stay
// bit-identical.
type StragglerSpec struct {
	Device int
	Delay  time.Duration
	Every  int
	Stream *sim.StreamID
	Kind   *sim.Kind
}

// PoisonSpec overwrites the declared output buffers of one task with NaNs
// after it completes: the Occurrence-th (1-based; 0 means first) completed
// task matching Label exactly, Stage, Device, and the optional Stream/Kind
// selectors — silent data corruption the numeric guards must catch.
type PoisonSpec struct {
	Label      string
	Stage      int
	Device     int
	Occurrence int
	Stream     *sim.StreamID
	Kind       *sim.Kind
}

// TransientTaskSpec fails individual bound tasks transiently, without the
// executor's in-place retry — the failure the elastic trainer recovers from
// by restoring and replaying, like a sampler-stream hiccup. The first
// Failures executions of tasks matching the filter (Device, label substring
// OnLabel, optional Stream/Kind) fail with *sim.TransientTaskError before
// any execution passes; the counter is global across graphs, so an elastic
// re-run of the voided work finds the fault gone and replays
// bit-identically. Scope the
// filter to a single task (label + device) when a deterministic recovery
// count matters: with several matching tasks racing in one replay, which
// one consumes the budget depends on executor interleaving.
type TransientTaskSpec struct {
	Device   int // -1 matches any device
	OnLabel  string
	Failures int
	Stream   *sim.StreamID
	Kind     *sim.Kind
}

// Plan is one seeded fault scenario. Nil specs inject nothing of that kind.
type Plan struct {
	Seed          int64
	Crash         *CrashSpec
	Transient     *TransientSpec
	Straggler     *StragglerSpec
	Poison        *PoisonSpec
	TransientTask *TransientTaskSpec
}

// Stats counts what the injector actually did — the chaos harness reports
// them next to each scenario's outcome.
type Stats struct {
	Crashes           int // permanent device-loss errors returned
	TransientFailures int // collective attempts failed transiently
	Delays            int // straggler sleeps injected
	Poisons           int // buffers NaN-poisoned
	TaskFailures      int // task executions failed transiently
}

// Injector injects one Plan into a run as a sim.FaultHook (the trainers
// install it from Config.Fault). Safe for concurrent use — the executor
// calls it from parallel workers.
type Injector struct {
	plan Plan

	mu         sync.Mutex
	crashed    bool // crash fired; device stays dead until ObserveRemoval
	crashSeen  int  // matching tasks observed before the crash fires
	lateSeen   int  // straggler-device tasks observed
	poisonSeen int  // poison-matching tasks observed
	taskFails  int  // transient task failures injected so far
	stats      Stats
}

var _ sim.FaultHook = (*Injector)(nil)

// New builds an injector for the plan.
func New(plan Plan) *Injector { return &Injector{plan: plan} }

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// ObserveRemoval acknowledges that a device was removed from the machine
// (the elastic trainer repartitioned over the survivors). Two specs retire:
//
//   - the crash latch stops matching the now-recycled device index (the
//     crash spec stays spent — one plan kills at most one device);
//   - a collective-transient spec retires unconditionally: the elastic
//     suspect-eviction rule attributes exhausted collectives to the removed
//     device (a flaky link rides with its endpoint), so once the suspect is
//     out of the group the injection stops and the survivors' re-run is
//     fault-free.
func (in *Injector) ObserveRemoval(device int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed && in.plan.Crash != nil && in.plan.Crash.Device == device {
		in.plan.Crash = nil
	}
	in.plan.Transient = nil
}

// onDevice reports whether t runs on dev.
func onDevice(t *sim.Task, dev int) bool {
	for _, d := range t.Devices {
		if d == dev {
			return true
		}
	}
	return false
}

// BeforeTask implements sim.FaultHook. The crash, transient-task and
// straggler seams act on a task's first attempt, in that order; the
// collective-transient seam on every attempt of a collective. Its selection
// hashes the record-time task ID with the seed, so the same collectives
// fail in every epoch and at every executor parallelism.
func (in *Injector) BeforeTask(g *sim.Graph, t *sim.Task, attempt int) error {
	if attempt == 1 {
		if err := in.firstAttempt(t); err != nil {
			return err
		}
	}
	in.mu.Lock()
	ts := in.plan.Transient
	if ts == nil || t.Coll == nil || attempt > ts.Failures ||
		mix(in.plan.Seed, uint64(t.ID))%uint64(max(ts.Every, 1)) != 0 {
		in.mu.Unlock()
		return nil
	}
	in.stats.TransientFailures++
	in.mu.Unlock()
	return sim.Transient(fmt.Errorf("fault: injected failure of %s (task %d, attempt %d)", t.Label, t.ID, attempt))
}

// firstAttempt is BeforeTask's crash, transient-task and straggler seams.
func (in *Injector) firstAttempt(t *sim.Task) error {
	var delay time.Duration
	in.mu.Lock()
	if c := in.plan.Crash; c != nil && onDevice(t, c.Device) {
		if in.crashed {
			in.stats.Crashes++
			in.mu.Unlock()
			return &sim.DeviceLostError{Device: c.Device}
		}
		if (c.OnLabel == "" || strings.Contains(t.Label, c.OnLabel)) && matchStreamKind(t, c.Stream, c.Kind) {
			in.crashSeen++
			if in.crashSeen > c.After {
				in.crashed = true
				in.stats.Crashes++
				in.mu.Unlock()
				return &sim.DeviceLostError{Device: c.Device}
			}
		}
	}
	if ts := in.plan.TransientTask; ts != nil && in.taskFails < ts.Failures &&
		(ts.Device < 0 || onDevice(t, ts.Device)) &&
		(ts.OnLabel == "" || strings.Contains(t.Label, ts.OnLabel)) &&
		matchStreamKind(t, ts.Stream, ts.Kind) {
		in.taskFails++
		in.stats.TaskFailures++
		dev := ts.Device
		if dev < 0 && len(t.Devices) > 0 {
			dev = t.Devices[0]
		}
		in.mu.Unlock()
		return &sim.TransientTaskError{Device: dev, Label: t.Label}
	}
	if s := in.plan.Straggler; s != nil && onDevice(t, s.Device) && matchStreamKind(t, s.Stream, s.Kind) {
		in.lateSeen++
		every := s.Every
		if every < 1 {
			every = 1
		}
		if in.lateSeen%every == 0 {
			delay = s.Delay
			in.stats.Delays++
		}
	}
	in.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// AfterTask implements sim.FaultHook: the NaN-poison seam. The poisoned
// buffers are the task's *declared* writes resolved through the graph's
// registry — corruption lands exactly where the task claims to write, so
// the sanitizer's access-set story stays coherent even under injection. A
// task whose declared writes hold no storage (a structure-only graph) fails
// instead.
func (in *Injector) AfterTask(g *sim.Graph, t *sim.Task) error {
	p := in.plan.Poison
	if p == nil || t.Label != p.Label || t.Stage != p.Stage || !onDevice(t, p.Device) ||
		!matchStreamKind(t, p.Stream, p.Kind) {
		return nil
	}
	in.mu.Lock()
	in.poisonSeen++
	occ := p.Occurrence
	if occ < 1 {
		occ = 1
	}
	fire := in.poisonSeen == occ
	if fire {
		in.stats.Poisons++
	}
	in.mu.Unlock()
	if !fire {
		return nil
	}
	if g.Reg == nil {
		return fmt.Errorf("fault: poison of task %q needs a buffer registry on the graph", t.Label)
	}
	nan := float32(math.NaN())
	poisoned := 0
	for _, id := range t.Writes {
		data := g.Reg.Data(id)
		for i := range data {
			data[i] = nan
		}
		poisoned += len(data)
	}
	if poisoned == 0 {
		// A structure-only graph holds no data to corrupt: refuse the plan
		// rather than report a fault that never happened.
		return fmt.Errorf("fault: poison of task %q found no stored output to corrupt", t.Label)
	}
	return nil
}

// mix is splitmix64 over the seed/ID pair — a cheap, well-distributed
// deterministic selector.
func mix(seed int64, x uint64) uint64 { return rng.Mix(uint64(seed) ^ x*rng.Gamma) }
