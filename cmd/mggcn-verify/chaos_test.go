package main

import (
	"fmt"
	"reflect"
	"testing"
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
