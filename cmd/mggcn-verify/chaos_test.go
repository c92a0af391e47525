package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mggcn/internal/core"
	"mggcn/internal/fault"
	"mggcn/internal/gen"
	"mggcn/internal/sim"
)

// TestChaosMatrixOrder pins the scenario order to (strategy, fault, seed):
// strategies in list order, faults in sweep order. The matrix used to be
// ranged out of a map, so two runs of one invocation emitted different JSON.
// It also pins the expectations: only exhausted retries off the sampled
// pipeline and a GAT device loss may abort.
func TestChaosMatrixOrder(t *testing.T) {
	v := &verifier{only: "all", all: true}
	aborts := map[string]bool{
		"1d-row/transient-exhaust": true, "1d-col/transient-exhaust": true, "1.5d/transient-exhaust": true,
		"gat/transient-exhaust": true, "gat/crash": true,
	}
	var got []string
	for _, sc := range chaosMatrix(v.selected(fullBatch, gat, sampled), "all", 2) {
		if want := map[bool]string{true: "abort", false: "survive"}[aborts[sc.Strategy+"/"+sc.Fault]]; sc.Expected != want {
			t.Errorf("%s/%s: expected outcome %q, want %q", sc.Strategy, sc.Fault, sc.Expected, want)
		}
		if sc.Seed == 1 {
			got = append(got, sc.Strategy+"/"+sc.Fault)
		} else if want := got[len(got)-1]; sc.Seed != 2 || sc.Strategy+"/"+sc.Fault != want {
			t.Fatalf("seed rows must follow their scenario: got %s/%s seed %d after %s", sc.Strategy, sc.Fault, sc.Seed, want)
		}
	}
	var want []string
	for _, st := range []string{"1d-row", "1d-col", "1.5d"} {
		for _, fk := range []string{"crash", "transient", "transient-exhaust", "straggler", "poison"} {
			want = append(want, st+"/"+fk)
		}
	}
	for _, fk := range []string{"crash", "transient", "transient-exhaust", "straggler"} {
		want = append(want, "gat/"+fk)
	}
	for _, fk := range []string{"crash", "flaky-sampler", "transient", "transient-exhaust", "straggler", "poison"} {
		want = append(want, "sampled/"+fk)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("matrix order:\n got %v\nwant %v", got, want)
	}

	// One fault kind narrows every strategy that sweeps it and skips the rest.
	var narrowed []string
	for _, sc := range chaosMatrix(v.selected(fullBatch, gat, sampled), "flaky-sampler", 1) {
		narrowed = append(narrowed, fmt.Sprintf("%s/%s/%d", sc.Strategy, sc.Fault, sc.Seed))
	}
	if want := []string{"sampled/flaky-sampler/1"}; !reflect.DeepEqual(narrowed, want) {
		t.Fatalf("narrowed matrix: got %v, want %v", narrowed, want)
	}
}

// TestPhantomWalkMatchesReplay holds a structure-only run to its real twin
// under every chaos fault kind, on both trainers: the phantom walk offers
// the same tasks to the same hooks, so the recovery log (kind and group
// size), the final group and every effective epoch's simulated seconds are
// equal bit for bit, at one and two executor workers. A poison plan has no
// data to corrupt on the twin and must fail it.
func TestPhantomWalkMatchesReplay(t *testing.T) {
	g := gen.Generate("verify", gen.DefaultBTER(160, 8, 99), 12, 4, false)
	structure := *g
	structure.Features, structure.Labels = nil, nil
	const p, epochs = 4, 2
	cfg := core.DefaultConfig(sim.DGXA100(), p, 1)
	cfg.Hidden, cfg.LR, cfg.Seed, cfg.SkipFirstBackward = 16, 0.01, 7, false
	type outcome struct {
		Events  []string
		FinalP  int
		Seconds []uint64
		Failed  bool
	}
	observe := func(run elasticRun, err error) outcome {
		o := outcome{FinalP: run.FinalP, Failed: err != nil}
		for _, ev := range run.Events {
			o.Events = append(o.Events, fmt.Sprintf("%s@%d", ev.Kind, ev.P))
		}
		for _, s := range run.Stats {
			o.Seconds = append(o.Seconds, math.Float64bits(s.EpochSeconds))
		}
		return o
	}
	for k, trainer := range map[kind]string{fullBatch: "full-batch", sampled: "sampled"} {
		for _, fk := range kindsFor(k) {
			for _, workers := range []int{1, 2} {
				c := cfg
				c.ExecWorkers = workers
				plan := chaosPlan(k, fk, 1, p)
				real, err := chaosTrainer(k, c, g, epochs)(fault.New(plan))
				want := observe(real, err)
				twin, err := chaosTrainer(k, c, &structure, epochs)(fault.New(plan))
				got := observe(twin, err)
				name := fmt.Sprintf("%s/%s/workers %d", trainer, fk, workers)
				if fk == "poison" {
					if err == nil {
						t.Errorf("%s: the structure-only twin trained through a poison plan", name)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: twin %+v, real %+v", name, got, want)
				}
			}
		}
	}
}
