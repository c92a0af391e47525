package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"mggcn/internal/fault"
	"mggcn/internal/graph"
	"mggcn/internal/san"
	"mggcn/internal/sim"
)

// sampledFaultConfig is testSampledConfig with the given injector as the
// fault hook.
func sampledFaultConfig(p int, inj *fault.Injector) SampledConfig {
	cfg := testSampledConfig(p)
	cfg.Fault = inj
	return cfg
}

// sampledLossCurve trains a fresh sampled trainer and returns the per-epoch
// losses.
func sampledLossCurve(t *testing.T, g *graph.Graph, cfg SampledConfig, epochs int) []float64 {
	t.Helper()
	tr, err := NewSampledTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, epochs)
	for e := range out {
		s, err := tr.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		out[e] = s.Loss
	}
	return out
}

// TestSampledTransientFaultParityBitIdentical: transient collective failures
// below the retry budget are invisible to the sampled pipeline — the retried
// run is bit-identical to the fault-free one.
func TestSampledTransientFaultParityBitIdentical(t *testing.T) {
	g := testGraph(t)
	const epochs = 3
	clean := sampledLossCurve(t, g, testSampledConfig(4), epochs)

	inj := fault.New(fault.Plan{Seed: 11, Transient: &fault.TransientSpec{Every: 2, Failures: 2}})
	faulted := sampledLossCurve(t, g, sampledFaultConfig(4, inj), epochs)

	for e := range clean {
		if faulted[e] != clean[e] {
			t.Fatalf("epoch %d: retried-transient loss %v != fault-free %v", e, faulted[e], clean[e])
		}
	}
	if st := inj.Stats(); st.TransientFailures == 0 {
		t.Fatal("injector never fired: the parity assertion proved nothing")
	}
}

// TestSampledStragglerParityBitIdentical: a sampler stream that lags changes
// the schedule, never the arithmetic — the stream-scoped straggler leaves
// results bit-identical.
func TestSampledStragglerParityBitIdentical(t *testing.T) {
	g := testGraph(t)
	const epochs = 2
	clean := sampledLossCurve(t, g, testSampledConfig(4), epochs)

	inj := fault.New(fault.Plan{Seed: 3, Straggler: &fault.StragglerSpec{
		Device: 1, Delay: 100 * time.Microsecond, Every: 3,
		Stream: fault.OnStream(sim.StreamSample),
	}})
	faulted := sampledLossCurve(t, g, sampledFaultConfig(4, inj), epochs)

	for e := range clean {
		if faulted[e] != clean[e] {
			t.Fatalf("epoch %d: straggler loss %v != fault-free %v", e, faulted[e], clean[e])
		}
	}
	if st := inj.Stats(); st.Delays == 0 {
		t.Fatal("straggler never fired")
	}
}

// TestSampledFlakySamplerReplayParity is the deterministic-replay bar: a
// sampler stage fails transiently mid-epoch, the elastic path restores the
// segment-start state, re-derives the lost batches from (seed, epoch,
// batch), and the finished run is bit-identical to a fault-free one.
func TestSampledFlakySamplerReplayParity(t *testing.T) {
	g := testGraph(t)
	const epochs = 3
	clean := sampledLossCurve(t, g, testSampledConfig(4), epochs)

	inj := fault.New(fault.Plan{Seed: 17, TransientTask: &fault.TransientTaskSpec{
		Device: 0, OnLabel: "s1/sample", Failures: 1,
		Stream: fault.OnStream(sim.StreamSample),
	}})
	res, err := TrainSampledElastic(g, sampledFaultConfig(4, inj), epochs)
	if err != nil {
		t.Fatalf("TrainSampledElastic: %v", err)
	}
	if len(res.Events) != 1 || res.Events[0].Kind != "transient-task" {
		t.Fatalf("recovery log = %+v, want one transient-task event", res.Events)
	}
	if st := inj.Stats(); st.TaskFailures != 1 {
		t.Fatalf("transient task fired %d times, want exactly 1", st.TaskFailures)
	}
	if res.FinalP != 4 {
		t.Fatalf("final group size %d, want 4 (no device was lost)", res.FinalP)
	}
	for e := range clean {
		if res.Stats[e].Loss != clean[e] { // vet:ok floateq — bit-identical replay is the contract
			t.Fatalf("epoch %d: replayed loss %v != fault-free %v", e, res.Stats[e].Loss, clean[e])
		}
	}
}

// TestSampledElasticPoisonRecovery: a NaN poisoned into a forward GeMM's
// output survives to the logits (from layer 0 through the ReLU, which
// propagates NaN), trips the numeric guard, and the segment-start restore
// plus deterministic replay leaves the run bit-identical to fault-free.
func TestSampledElasticPoisonRecovery(t *testing.T) {
	g := testGraph(t)
	const epochs = 3
	clean := sampledLossCurve(t, g, testSampledConfig(4), epochs)

	for _, label := range []string{"s0/fwd1/gemm", "s0/fwd0/gemm"} {
		inj := fault.New(fault.Plan{Seed: 9, Poison: &fault.PoisonSpec{
			Label: label, Stage: -1, Device: 0, Occurrence: 1,
			Kind: fault.OnKind(sim.KindGeMM),
		}})
		res, err := TrainSampledElastic(g, sampledFaultConfig(4, inj), epochs)
		if err != nil {
			t.Fatalf("%s: TrainSampledElastic: %v", label, err)
		}
		if len(res.Events) != 1 || res.Events[0].Kind != "numeric" {
			t.Fatalf("%s: recovery log = %+v, want one numeric event", label, res.Events)
		}
		if st := inj.Stats(); st.Poisons != 1 {
			t.Fatalf("%s: poison fired %d times, want exactly 1", label, st.Poisons)
		}
		for e := range clean {
			if res.Stats[e].Loss != clean[e] { // vet:ok floateq — bit-identical replay is the contract
				t.Fatalf("%s: epoch %d: post-recovery loss %v != fault-free %v", label, e, res.Stats[e].Loss, clean[e])
			}
		}
	}
}

// TestSampledElasticCrashRecoveryParity: a device lost inside its sampler
// stage. The elastic path resyncs the survivors, repartitions at P-1 with
// freshly derived feature caches, replays the voided segment, and finishes
// all effective epochs — within 1e-6 of a fault-free P-1 run at equal
// effective steps.
func TestSampledElasticCrashRecoveryParity(t *testing.T) {
	g := testGraph(t)
	const epochs = 4

	// Weight init depends only on (seed, dims), so a fresh P=3 trainer is
	// the exact fault-free reference for the post-recovery group.
	ref := sampledLossCurve(t, g, testSampledConfig(3), epochs)

	inj := fault.New(fault.Plan{Seed: 1, Crash: &fault.CrashSpec{
		Device: 2, OnLabel: "sample",
		Stream: fault.OnStream(sim.StreamSample),
	}})
	res, err := TrainSampledElastic(g, sampledFaultConfig(4, inj), epochs)
	if err != nil {
		t.Fatalf("TrainSampledElastic: %v", err)
	}
	if len(res.Stats) != epochs {
		t.Fatalf("completed %d effective epochs, want %d", len(res.Stats), epochs)
	}
	if res.FinalP != 3 {
		t.Fatalf("final group size %d, want 3", res.FinalP)
	}
	if len(res.Events) != 1 || res.Events[0].Kind != "device-lost" {
		t.Fatalf("recovery log = %+v, want one device-lost event", res.Events)
	}
	if st := inj.Stats(); st.Crashes == 0 {
		t.Fatal("crash never fired")
	}
	for e := 0; e < epochs; e++ {
		if d := math.Abs(res.Stats[e].Loss - ref[e]); d > 1e-6 {
			t.Fatalf("epoch %d: recovered loss %v vs fault-free P=3 %v (|Δ|=%g > 1e-6)", e, res.Stats[e].Loss, ref[e], d)
		}
	}

	// The rebuilt trainer must be indistinguishable from a fresh P=3 one in
	// its memory story: same pool bytes on every surviving device.
	fresh, err := NewSampledTrainer(g, testSampledConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		if got, want := res.Trainer.PoolUsed(d), fresh.PoolUsed(d); got != want {
			t.Fatalf("device %d pool: rebuilt trainer holds %d bytes, fresh P=3 trainer %d", d, got, want)
		}
	}
}

// TestSampledGiveUpConvertsToEviction is the suspect-eviction rule: a
// collective that exhausts its retry budget evicts the highest-indexed
// device instead of aborting, and the survivors finish the run fault-free
// at P-1. Runs under -race -short.
func TestSampledGiveUpConvertsToEviction(t *testing.T) {
	g := testGraph(t)
	const epochs = 3
	ref := sampledLossCurve(t, g, testSampledConfig(1), epochs)

	inj := fault.New(fault.Plan{Seed: 2, Transient: &fault.TransientSpec{Every: 1, Failures: 100}})
	res, err := TrainSampledElastic(g, sampledFaultConfig(2, inj), epochs)
	if err != nil {
		t.Fatalf("TrainSampledElastic under exhausted collectives: %v", err)
	}
	if res.FinalP != 1 {
		t.Fatalf("final group size %d, want 1", res.FinalP)
	}
	if len(res.Events) != 1 || res.Events[0].Kind != "device-lost" {
		t.Fatalf("recovery log = %+v, want one device-lost (eviction) event", res.Events)
	}
	if len(res.Stats) != epochs {
		t.Fatalf("completed %d effective epochs, want %d", len(res.Stats), epochs)
	}
	for e := 0; e < epochs; e++ {
		if d := math.Abs(res.Stats[e].Loss - ref[e]); d > 1e-6 {
			t.Fatalf("epoch %d: post-eviction loss %v vs fault-free P=1 %v (|Δ|=%g > 1e-6)", e, res.Stats[e].Loss, ref[e], d)
		}
	}

	// At P=1 there is no one left to evict: a still-exhausting collective
	// must abort, not loop.
	inj2 := fault.New(fault.Plan{Seed: 2, Transient: &fault.TransientSpec{Every: 1, Failures: 100}})
	_, err = TrainSampledElastic(g, sampledFaultConfig(1, inj2), 1)
	var give *sim.GiveUpError
	if !errors.As(err, &give) {
		t.Fatalf("P=1 exhaustion error = %v, want wrapped *sim.GiveUpError", err)
	}
}

// TestSampledElasticSanClean: the graphs the rebuilt P-1 trainer records
// after a crash recovery stay clean under the static happens-before check
// and the shadow replay — the slot discipline survives the repartition.
func TestSampledElasticSanClean(t *testing.T) {
	g := testGraph(t)
	inj := fault.New(fault.Plan{Seed: 1, Crash: &fault.CrashSpec{
		Device: 1, OnLabel: "extract",
		Stream: fault.OnStream(sim.StreamSample),
	}})
	cfg := sampledFaultConfig(3, inj)
	res, err := TrainSampledElastic(g, cfg, 2)
	if err != nil {
		t.Fatalf("TrainSampledElastic: %v", err)
	}
	if res.FinalP != 2 {
		t.Fatalf("final group size %d, want 2", res.FinalP)
	}
	if got := san.Check(res.Trainer.LastGraph(), res.Trainer.LastGraph().HappensBefore(sim.ExecutorEdges)); len(got) != 0 {
		t.Errorf("post-recovery graph: %d unordered conflicts, e.g. %v", len(got), got[0])
	}
	sh := san.NewShadow(res.Trainer.Registry())
	res.Trainer.Cfg.ExecObserver = sh
	if _, err := res.Trainer.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := sh.Findings; len(got) != 0 {
		t.Fatalf("post-recovery shadow replay found %d undeclared accesses, e.g. %v", len(got), got[0])
	}
}

// TestSampledElasticAbortsAfterRepeatedFailures: a transient-task injector
// with an effectively unbounded budget keeps voiding the same segment; the
// elastic loop must bail after maxConsecutiveRecoveries instead of looping.
func TestSampledElasticAbortsAfterRepeatedFailures(t *testing.T) {
	g := testGraph(t)
	inj := fault.New(fault.Plan{Seed: 4, TransientTask: &fault.TransientTaskSpec{
		Device: -1, OnLabel: "sample", Failures: 1 << 30,
		Stream: fault.OnStream(sim.StreamSample),
	}})
	res, err := TrainSampledElastic(g, sampledFaultConfig(2, inj), 2)
	if err == nil {
		t.Fatal("TrainSampledElastic succeeded under a permanently failing sampler")
	}
	var transient *sim.TransientTaskError
	if !errors.As(err, &transient) {
		t.Fatalf("error = %v, want wrapped *sim.TransientTaskError", err)
	}
	if res == nil || len(res.Stats) != 0 {
		t.Fatalf("partial result = %+v, want empty stats", res)
	}
}
