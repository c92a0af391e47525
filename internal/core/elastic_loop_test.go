package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// fakeTrainer drives the elastic loop without a graph: a real replica set of
// one 2x2 weight per device, and a script of per-call RunEpoch outcomes
// shared across rebuilds. With poison set, a failing call first writes NaN
// over every replica, so a recovery that does not put the unit-start state
// back is visible (and no survivor qualifies as a resync source).
type fakeTrainer struct {
	replicas
	environ execEnv
	pol     recoveryPolicy
	run     *fakeRun
}

type fakeRun struct {
	script   []error // outcome of call i; past the end every call succeeds
	poison   bool
	calls    int
	rebuilds int
	removed  []int // ObserveRemoval acknowledgements, in order
}

func (r *fakeRun) BeforeTask(*sim.Graph, *sim.Task, int) error { return nil }
func (r *fakeRun) AfterTask(*sim.Graph, *sim.Task) error       { return nil }
func (r *fakeRun) ObserveRemoval(dev int)                      { r.removed = append(r.removed, dev) }

func newFakeTrainer(p int, pol recoveryPolicy, run *fakeRun) *fakeTrainer {
	init := []*tensor.Dense{tensor.NewDense(2, 2)}
	init[0].Data[0] = 1
	f := &fakeTrainer{replicas: newReplicas(newReplayer(sim.DGXV100(), p, 1, false), init), pol: pol, run: run}
	f.environ.Fault = run
	for d := 0; d < p; d++ {
		if err := f.add(init, 0.01); err != nil {
			panic(err)
		}
	}
	return f
}

func (f *fakeTrainer) RunEpoch() (*EpochStats, error) {
	call := f.run.calls
	f.run.calls++
	if call < len(f.run.script) && f.run.script[call] != nil {
		if f.run.poison {
			for _, ws := range f.weights {
				ws[0].Data[0] = float32(math.NaN())
			}
		}
		return nil, f.run.script[call]
	}
	for _, ws := range f.weights {
		ws[0].Data[0]++
	}
	return &EpochStats{Loss: float64(call)}, nil
}

func (f *fakeTrainer) env() *execEnv                  { return &f.environ }
func (f *fakeTrainer) recoveryPolicy() recoveryPolicy { return f.pol }

func (f *fakeTrainer) rebuild(p int) (*fakeTrainer, string, error) {
	f.run.rebuilds++
	return newFakeTrainer(p, f.pol, f.run), "; rebuilt", nil
}

// asTask wraps err the way the executor reports a failed task.
func asTask(err error) error { return &sim.TaskError{ID: 3, Label: "t", Device: 0, Err: err} }

// TestElasticLattice pins the failure lattice as a table: for every error
// class under the full-batch and the sampled policy, which action the one
// loop takes and what it logs. The two policies are the trainers' own, so
// the two rows where they differ are pinned against the real tables.
func TestElasticLattice(t *testing.T) {
	boom := errors.New("kernel exploded")
	gaveUp := &sim.GiveUpError{Label: "allreduce", Attempts: 4, Err: errors.New("transient")}
	policies := map[string]recoveryPolicy{
		"full-batch": (&Trainer{}).recoveryPolicy(),
		"sampled":    (&SampledTrainer{}).recoveryPolicy(),
	}
	cases := []struct {
		name string
		err  error
		// action per policy: "restore", "shrink" (the named device leaves),
		// "evict" (the highest-indexed device leaves) or "abort".
		fullBatch, sampled string
		kind               string
	}{
		{"device-lost", asTask(&sim.DeviceLostError{Device: 1}), "shrink", "shrink", "device-lost"},
		{"numeric", &NumericError{What: "loss"}, "restore", "restore", "numeric"},
		{"give-up", asTask(gaveUp), "abort", "evict", "device-lost"},
		{"transient-task", asTask(&sim.TransientTaskError{Device: 0, Label: "s1/sample"}), "abort", "restore", "transient-task"},
		{"unclassified", asTask(boom), "abort", "abort", ""},
	}
	const p, epochs = 3, 3
	for _, tc := range cases {
		for polName, pol := range policies {
			action := tc.fullBatch
			if polName == "sampled" {
				action = tc.sampled
			}
			t.Run(tc.name+"/"+polName, func(t *testing.T) {
				// Epoch 0 succeeds, epoch 1 fails once. A lost or evicted device
				// leaves the survivors' replicas intact (they resync); every
				// other failure poisons them.
				fr := &fakeRun{script: []error{nil, tc.err}, poison: action != "shrink" && action != "evict"}
				run := elasticRun[*fakeTrainer]{tr: newFakeTrainer(p, pol, fr)}
				err := run.train(epochs)
				if action == "abort" {
					if err != tc.err {
						t.Fatalf("error = %v, want the epoch's error untouched", err)
					}
					if len(run.log.stats) != 1 || len(run.events) != 0 || fr.rebuilds != 0 || run.tr.Machine.P != p {
						t.Fatalf("abort left %d epochs, events %+v, %d rebuilds, P=%d; want the 1 completed epoch and nothing else",
							len(run.log.stats), run.events, fr.rebuilds, run.tr.Machine.P)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(run.log.stats) != epochs || fr.calls != epochs+1 {
					t.Fatalf("%d effective epochs in %d calls, want %d in %d", len(run.log.stats), fr.calls, epochs, epochs+1)
				}
				if len(run.events) != 1 || run.events[0].Kind != tc.kind || run.events[0].Epoch != 1 {
					t.Fatalf("events = %+v, want one %q event at epoch 1", run.events, tc.kind)
				}
				wantP, wantRemoved, wantDetail := p, []int(nil), "restored"
				switch action {
				case "shrink":
					wantP, wantRemoved, wantDetail = p-1, []int{1}, "resynced 2 survivors"
				case "evict":
					wantP, wantRemoved, wantDetail = p-1, []int{p - 1}, "evicted suspect device 2; resynced 2 survivors"
				}
				if !strings.Contains(run.events[0].Detail, wantDetail) {
					t.Fatalf("event detail %q, want it to say %q", run.events[0].Detail, wantDetail)
				}
				if run.tr.Machine.P != wantP || run.events[0].P != wantP || fr.rebuilds != p-wantP {
					t.Fatalf("P=%d (event %d) after %d rebuilds, want P=%d", run.tr.Machine.P, run.events[0].P, fr.rebuilds, wantP)
				}
				if len(fr.removed) != len(wantRemoved) || (len(wantRemoved) == 1 && fr.removed[0] != wantRemoved[0]) {
					t.Fatalf("acknowledged removals %v, want %v", fr.removed, wantRemoved)
				}
				// Every replica holds the state of `epochs` clean steps: the
				// unit-start state was back in place before the re-run.
				for d, ws := range run.tr.weights {
					if got := ws[0].Data[0]; got != 1+epochs {
						t.Fatalf("replica %d weight = %v, want %v: unit-start state was not restored", d, got, 1+epochs)
					}
				}
			})
		}
	}
}

// TestElasticLoopBounds: the consecutive-failure budget aborts wrapping the
// epoch's error, and an eviction with nobody left to evict returns the
// collective's error itself.
func TestElasticLoopBounds(t *testing.T) {
	sampled := (&SampledTrainer{}).recoveryPolicy()

	numeric := &NumericError{What: "loss"}
	fr := &fakeRun{script: []error{numeric, numeric, numeric, numeric, numeric, numeric}, poison: true}
	run := elasticRun[*fakeTrainer]{tr: newFakeTrainer(2, sampled, fr)}
	err := run.train(2)
	var got *NumericError
	if err == nil || !errors.As(err, &got) || got != numeric || err == error(numeric) {
		t.Fatalf("error = %v, want a wrap of the original *NumericError", err)
	}
	if fr.calls != maxConsecutiveRecoveries+1 || len(run.events) != maxConsecutiveRecoveries {
		t.Fatalf("%d calls, %d recoveries; want the budget of %d recoveries then abort",
			fr.calls, len(run.events), maxConsecutiveRecoveries)
	}

	gaveUp := &sim.GiveUpError{Label: "allreduce", Attempts: 4, Err: errors.New("transient")}
	wrapped := asTask(gaveUp)
	fr = &fakeRun{script: []error{wrapped}}
	run = elasticRun[*fakeTrainer]{tr: newFakeTrainer(1, sampled, fr)}
	if err := run.train(2); err != wrapped {
		t.Fatalf("eviction at P=1: error = %v, want the collective's error itself", err)
	}
	if len(run.events) != 0 || fr.rebuilds != 0 {
		t.Fatalf("eviction at P=1 logged %+v and rebuilt %d times, want neither", run.events, fr.rebuilds)
	}
}
