package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"mggcn/internal/fault"
	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// faultConfig is testConfig with the given injector as the fault hook.
func faultConfig(p int, inj *fault.Injector) Config {
	cfg := testConfig(p)
	cfg.Fault = inj
	return cfg
}

// lossCurve trains a fresh trainer for epochs and returns the loss series.
func lossCurve(t *testing.T, g *graph.Graph, cfg Config, epochs int) []float64 {
	t.Helper()
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for e := 0; e < epochs; e++ {
		out = append(out, mustEpoch(tr).Loss)
	}
	return out
}

func TestTransientFaultParityBitIdentical(t *testing.T) {
	// Transient collective failures below the retry budget must be invisible
	// under every shipped strategy: the gate fires before any data moves, so
	// the retried run is bit-identical to the fault-free one.
	g := testGraph(t)
	const epochs = 5
	for _, tc := range []struct {
		name     string
		strategy Strategy
	}{
		{"1d-row", Strategy1DRow},
		{"1d-col", Strategy1DCol},
		{"1.5d", Strategy15D},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(4)
			cfg.Strategy = tc.strategy
			clean := lossCurve(t, g, cfg, epochs)

			inj := fault.New(fault.Plan{Seed: 11, Transient: &fault.TransientSpec{Every: 2, Failures: 2}})
			fcfg := faultConfig(4, inj)
			fcfg.Strategy = tc.strategy
			faulted := lossCurve(t, g, fcfg, epochs)

			for e := range clean {
				if faulted[e] != clean[e] {
					t.Fatalf("epoch %d: retried-transient loss %v != fault-free %v (must be bit-identical)", e, faulted[e], clean[e])
				}
			}
			if st := inj.Stats(); st.TransientFailures == 0 {
				t.Fatal("injector never fired: the parity assertion proved nothing")
			}
		})
	}
}

func TestGATTransientFaultParityBitIdentical(t *testing.T) {
	// The GAT distribution path shares the executor's retry loop, its raw
	// all-gather included; retried transients must be invisible there too.
	g := testGraph(t)
	model := nn.NewGAT(g, nn.LayerDims(g.FeatDim, 16, 2, g.Classes), 3)
	cfg := testConfig(4)
	d, err := NewGATDist(g, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := mustGATForward(d)

	inj := fault.New(fault.Plan{Seed: 11, Transient: &fault.TransientSpec{Every: 2, Failures: 2}})
	fcfg := faultConfig(4, inj)
	df, err := NewGATDist(g, model, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	faulted, _ := mustGATForward(df)

	if clean != nil && faulted != nil {
		for i := range clean.Data {
			if faulted.Data[i] != clean.Data[i] {
				t.Fatalf("logit %d: %v != fault-free %v", i, faulted.Data[i], clean.Data[i])
			}
		}
	}
	if st := inj.Stats(); st.TransientFailures == 0 {
		t.Fatal("injector never fired on the GAT path")
	}
}

func TestStragglerParityBitIdentical(t *testing.T) {
	// A slow device changes the schedule, never the arithmetic.
	g := testGraph(t)
	const epochs = 3
	clean := lossCurve(t, g, testConfig(4), epochs)

	inj := fault.New(fault.Plan{Seed: 3, Straggler: &fault.StragglerSpec{Device: 1, Delay: 100 * time.Microsecond, Every: 7}})
	faulted := lossCurve(t, g, faultConfig(4, inj), epochs)

	for e := range clean {
		if faulted[e] != clean[e] {
			t.Fatalf("epoch %d: straggler loss %v != fault-free %v", e, faulted[e], clean[e])
		}
	}
	if st := inj.Stats(); st.Delays == 0 {
		t.Fatal("straggler never fired")
	}
}

func TestTransientExhaustionGivesUp(t *testing.T) {
	// Failures >= the retry budget: the executor converts the collective's
	// last transient failure into a permanent GiveUpError and the epoch
	// aborts.
	g := testGraph(t)
	inj := fault.New(fault.Plan{Seed: 11, Transient: &fault.TransientSpec{Every: 2, Failures: 10}})
	tr, err := NewTrainer(g, faultConfig(4, inj))
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.RunEpoch()
	var give *sim.GiveUpError
	if !errors.As(err, &give) {
		t.Fatalf("RunEpoch error = %v, want wrapped *sim.GiveUpError", err)
	}
	if give.Attempts != 4 {
		t.Fatalf("gave up after %d attempts, want the executor's 4", give.Attempts)
	}
}

func TestElasticCrashRecoveryParity(t *testing.T) {
	// A device lost mid-backward: TrainElastic resyncs the survivors,
	// repartitions at P-1, re-runs the voided epoch, and finishes all
	// effective epochs. The result must match a fault-free run that starts
	// from the same initial weights on P-1 devices — within 1e-6 at equal
	// effective epochs (bit-identical in practice: the resynced state equals
	// the epoch-start state exactly).
	g := testGraph(t)
	const epochs = 6

	// Reference: capture the P=4 trainer's initial replica, restore it onto
	// a fresh P=3 trainer, train fault-free.
	cfgRef := testConfig(4)
	trRef4, err := NewTrainer(g, cfgRef)
	if err != nil {
		t.Fatal(err)
	}
	initial := trRef4.capture(0)
	cfgRef3 := testConfig(3)
	trRef3, err := NewTrainer(g, cfgRef3)
	if err != nil {
		t.Fatal(err)
	}
	trRef3.restore(initial)
	var ref []float64
	for e := 0; e < epochs; e++ {
		ref = append(ref, mustEpoch(trRef3).Loss)
	}

	// Faulted run: device 2 dies on its first backward task of epoch 0.
	inj := fault.New(fault.Plan{Seed: 1, Crash: &fault.CrashSpec{Device: 2, OnLabel: "bwd"}})
	res, err := TrainElastic(g, faultConfig(4, inj), epochs)
	if err != nil {
		t.Fatalf("TrainElastic: %v", err)
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
}

func TestElastic15DDegradesTo1DRow(t *testing.T) {
	// 1.5D needs an even group: losing one of four devices leaves three, so
	// the repartition must fall back to the paper's 1D-row strategy.
	g := testGraph(t)
	cfg := testConfig(4)
	cfg.Strategy = Strategy15D
	inj := fault.New(fault.Plan{Seed: 5, Crash: &fault.CrashSpec{Device: 3, OnLabel: "fwd"}})
	cfg.Fault = inj
	res, err := TrainElastic(g, cfg, 3)
	if err != nil {
		t.Fatalf("TrainElastic: %v", err)
	}
	if res.FinalP != 3 {
		t.Fatalf("final group size %d, want 3", res.FinalP)
	}
	if res.Trainer.Cfg.Strategy != Strategy1DRow {
		t.Fatalf("strategy after odd shrink = %v, want Strategy1DRow", res.Trainer.Cfg.Strategy)
	}
	if len(res.Stats) != 3 {
		t.Fatalf("completed %d effective epochs, want 3", len(res.Stats))
	}
}

func TestElasticNumericPoisonRecovery(t *testing.T) {
	// A one-shot NaN poison on a forward GeMM's output reaches the logits —
	// from the last layer directly, from layer 0 through the ReLU, which
	// propagates NaN; the numeric guard voids the epoch, the snapshot
	// restores, and the re-run — no longer poisoned — is bit-identical to a
	// fault-free run.
	g := testGraph(t)
	const epochs = 4
	clean := lossCurve(t, g, testConfig(4), epochs)

	for _, label := range []string{"fwd1/gemm", "fwd0/gemm"} {
		inj := fault.New(fault.Plan{Seed: 9, Poison: &fault.PoisonSpec{Label: label, Stage: -1, Device: 0, Occurrence: 1}})
		res, err := TrainElastic(g, faultConfig(4, inj), epochs)
		if err != nil {
			t.Fatalf("%s: TrainElastic: %v", label, err)
		}
		if len(res.Events) != 1 || res.Events[0].Kind != "numeric" {
			t.Fatalf("%s: recovery log = %+v, want one numeric event", label, res.Events)
		}
		if st := inj.Stats(); st.Poisons != 1 {
			t.Fatalf("%s: poison fired %d times, want exactly 1", label, st.Poisons)
		}
		for e := range clean {
			if res.Stats[e].Loss != clean[e] {
				t.Fatalf("%s: epoch %d: post-recovery loss %v != fault-free %v", label, e, res.Stats[e].Loss, clean[e])
			}
		}
	}
}

func TestElasticAbortsAfterRepeatedFailures(t *testing.T) {
	// An injector that keeps exhausting the retry budget must not loop
	// forever: TrainElastic bails after maxConsecutiveRecoveries.
	g := testGraph(t)
	inj := fault.New(fault.Plan{Seed: 2, Transient: &fault.TransientSpec{Every: 1, Failures: 100}})
	res, err := TrainElastic(g, faultConfig(2, inj), 3)
	if err == nil {
		t.Fatal("TrainElastic succeeded under a permanently failing collective")
	}
	var give *sim.GiveUpError
	if !errors.As(err, &give) {
		t.Fatalf("error = %v, want wrapped *sim.GiveUpError", err)
	}
	if res == nil || len(res.Stats) != 0 {
		t.Fatalf("partial result = %+v, want empty stats", res)
	}
}

func TestCrashedDeviceErrorIdentifiesDevice(t *testing.T) {
	g := testGraph(t)
	inj := fault.New(fault.Plan{Seed: 1, Crash: &fault.CrashSpec{Device: 1, OnLabel: "adam"}})
	tr, err := NewTrainer(g, faultConfig(2, inj))
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.RunEpoch()
	var lost *sim.DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("RunEpoch error = %v, want wrapped *sim.DeviceLostError", err)
	}
	if lost.Device != 1 {
		t.Fatalf("lost device %d, want 1", lost.Device)
	}
}

// TestResyncMovesRealWeights: the elastic resync's broadcasts write replicas,
// not shape-only staging slabs, so they still move data. After a device
// loss the survivors agree, and a resync overwrites a diverged replica.
func TestResyncMovesRealWeights(t *testing.T) {
	inj := fault.New(fault.Plan{Seed: 1, Crash: &fault.CrashSpec{Device: 2, OnLabel: "bwd"}})
	res, err := TrainElastic(testGraph(t), faultConfig(4, inj), 2)
	if err != nil {
		t.Fatalf("TrainElastic: %v", err)
	}
	tr := res.Trainer
	if res.FinalP != 3 || tr.devs[0].bufs.BC1.data != nil {
		t.Fatalf("final P = %d, BC1 storage %t; want 3 survivors with shape-only staging", res.FinalP, tr.devs[0].bufs.BC1.data != nil)
	}
	for _, w := range tr.weights[1] {
		w.Zero()
	}
	if err := tr.resync(&tr.Cfg.execEnv, []int{0, 1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	for d := 1; d < 3; d++ {
		for l, w := range tr.weights[d] {
			if !tensor.Equal(w, tr.weights[0][l], 0) {
				t.Fatalf("device %d layer %d weights are not replica 0's after resync", d, l)
			}
		}
	}
}
