package mggcn

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// linearFit is the scan deepestFit replaces: every depth from 1 up, stopping
// at the first that does not fit.
func linearFit(budget int64, bytes func(int) (int64, error)) (int, error) {
	best := 0
	for layers := 1; layers <= maxFitLayers; layers++ {
		b, err := bytes(layers)
		if err != nil {
			return 0, err
		}
		if b > budget {
			break
		}
		best = layers
	}
	return best, nil
}

// TestDeepestFitMatchesLinearScan pins the bisection to the scan on Fig 12's
// own footprints and on step functions at the edges: nothing fits, the cap
// is reached, and a probe fails. It also holds the bisection to its
// logarithmic cost.
func TestDeepestFitMatchesLinearScan(t *testing.T) {
	ds, err := LoadDataset("reddit", true)
	if err != nil {
		t.Fatal(err)
	}
	type footprint = func(int) (int64, error)
	type fitCase struct {
		name   string
		budget int64
		bytes  footprint
	}
	var cases []fitCase
	for _, c := range fig12Columns(ds) {
		for _, gib := range fig12BudgetsGiB {
			// The scan over the MG-GCN estimate costs O(L²) term
			// evaluations; 2-8 GiB keeps it under a second.
			if strings.HasPrefix(c.key, "mg") && gib > 8 {
				continue
			}
			cases = append(cases, fitCase{fmt.Sprintf("%d/%s", gib, c.key), gib << 30, c.bytes})
		}
	}
	step := func(deepest int) footprint {
		return func(layers int) (int64, error) {
			if layers > deepest {
				return 2, nil
			}
			return 1, nil
		}
	}
	errProbe := errors.New("probe failed")
	failFrom := func(first int) footprint {
		return func(layers int) (int64, error) {
			if layers >= first {
				return 0, errProbe
			}
			return 1, nil
		}
	}
	cases = append(cases,
		fitCase{"fits nowhere", 1, step(0)},
		fitCase{"fits one", 1, step(1)},
		fitCase{"fits 1000", 1, step(1000)},
		fitCase{"fits to the cap", 1, step(maxFitLayers)},
		fitCase{"fits past the cap", 1, step(1 << 20)},
		fitCase{"fails from 300", 1, failFrom(300)},
		fitCase{"fails everywhere", 1, failFrom(1)},
	)
	for _, c := range cases {
		want, wantErr := linearFit(c.budget, c.bytes)
		calls := 0
		got, gotErr := deepestFit(c.budget, func(layers int) (int64, error) {
			calls++
			return c.bytes(layers)
		})
		if got != want || !errors.Is(gotErr, wantErr) {
			t.Errorf("%s: deepestFit = %d, %v; linear scan = %d, %v", c.name, got, gotErr, want, wantErr)
		}
		if calls > 26 { // 2 log2(maxFitLayers)
			t.Errorf("%s: %d footprint evaluations", c.name, calls)
		}
	}
}
