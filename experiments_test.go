package mggcn

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"mggcn/internal/comm"
	"mggcn/internal/core"
	"mggcn/internal/gen"
	"mggcn/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden and EXPERIMENTS_OUTPUT.txt from this run")

// experiments memoises each experiment's result for the test process: the
// golden comparison and the shape tests read one run.
var experiments = map[string]*ExperimentResult{}

// experiment returns the registered experiment id's result, running it on
// first use.
func experiment(t *testing.T, id string) *ExperimentResult {
	t.Helper()
	if res, ok := experiments[id]; ok {
		return res
	}
	res, err := RunExperiment(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	experiments[id] = res
	return res
}

const (
	experimentsGolden = "testdata/experiments.golden"
	experimentsOutput = "EXPERIMENTS_OUTPUT.txt"
)

// TestExperimentsGolden holds every registered experiment's Values to
// testdata/experiments.golden bit for bit: a "# <id>" line per experiment
// in registry order, then a "key=<float64 bits>" line per key in sorted
// order. The shape tests hold the paper's claims; this holds every number,
// so a refactor that moves one fails here. EXPERIMENTS_OUTPUT.txt is the
// same runs' reports, one "=== <id> — <title> ===" block each, and must match
// them too. -update rewrites both files.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment: long e2e, skipped in -short")
	}
	var got, reports strings.Builder
	for _, e := range Experiments() {
		res := experiment(t, e.ID)
		fmt.Fprintf(&reports, "=== %s — %s ===\n%s\n", e.ID, e.Title, res.Text)
		values := res.Values
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Fprintf(&got, "# %s\n", e.ID)
		for _, k := range keys {
			fmt.Fprintf(&got, "%s=%016x\n", k, math.Float64bits(values[k]))
		}
	}
	if *update {
		for file, content := range map[string]string{experimentsGolden: got.String(), experimentsOutput: reports.String()} {
			if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	if out, err := os.ReadFile(experimentsOutput); err != nil {
		t.Fatal(err)
	} else if l := firstDiffLine(string(out), reports.String()); l > 0 {
		t.Errorf("%s differs from the runs' reports at line %d (go test -run ExperimentsGolden . -update rewrites it)", experimentsOutput, l)
	}
	want, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := sectionLines(got.String()), sectionLines(string(want))
	for _, l := range gotLines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("new: %s", l)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(gotLines, l) {
			t.Errorf("gone: %s", l)
		}
	}
	t.Errorf("values differ from %s (go test -run ExperimentsGolden . -update rewrites it)", experimentsGolden)
}

// firstDiffLine returns the 1-based number of the first line where a and b
// differ, or 0 when they are equal.
func firstDiffLine(a, b string) int {
	if a == b {
		return 0
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

// sectionLines prefixes each value line of a golden with its experiment's id.
func sectionLines(golden string) []string {
	var out []string
	id := ""
	for _, line := range strings.Split(golden, "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			id = rest
		} else if line != "" {
			out = append(out, id+": "+line)
		}
	}
	return out
}

// TestDGLCellsGateOnMemory holds Figs 10-14 to DGL's own footprint: where
// DGL's model does not fit one GPU its time reads OOM (-1), and every
// speedup over it reads 0 (a "-" cell), never -1/t.
func TestDGLCellsGateOnMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig 10 and Fig 13 sweeps: long e2e, skipped in -short")
	}
	for _, fig := range []struct {
		times, speedups string
		machine         MachineSpec
	}{{"fig10", "fig11", DGXV100()}, {"fig13", "fig14", DGXA100()}} {
		times, speedups := experiment(t, fig.times).Values, experiment(t, fig.speedups).Values
		for _, name := range figureDatasets {
			ds, err := LoadDataset(name, true)
			if err != nil {
				t.Fatal(err)
			}
			est, err := baselineResident(ds, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			oom := est > fig.machine.MemBytesPerGPU
			if got := times[name+"/dgl/1"]; (got == -1) != oom || got == 0 {
				t.Errorf("%s: %s DGL time %v; its footprint fits: %t", fig.times, name, got, !oom)
			}
			for k, s := range speedups {
				if strings.HasPrefix(k, name+"/") && (s < 0 || oom && s != 0) {
					t.Errorf("%s: %s = %v with DGL's time %v", fig.speedups, k, s, times[name+"/dgl/1"])
				}
			}
		}
	}
}

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

// TestSampledCellsScheduleOnStructure holds what runSampled schedules its
// matrix on, at every (cache fraction x pipelining) cell of a small graph:
// every cell's loss has the same bits, so one real epoch gives them all; the
// host-only count pass equals the words each replay meters, so the two
// cells of a fraction meter the same words; and a structure-only twin's
// simulated epoch, overlap, per-kind busy time and per-device pool charge
// have its real cell's bits.
func TestSampledCellsScheduleOnStructure(t *testing.T) {
	g := gen.Generate("sampled-cells", gen.DefaultBTER(300, 8, 5), 12, 4, false)
	structure := *g
	structure.Features, structure.Labels = nil, nil
	config := func(frac float64, pipeline bool) core.SampledConfig {
		cfg := core.DefaultSampledConfig(sim.DGXA100(), 4, 1)
		cfg.Hidden, cfg.Layers, cfg.Fanouts, cfg.Batch = 16, 2, []int{4, 6}, 16
		cfg.CacheFrac, cfg.Pipeline = frac, pipeline
		return cfg
	}
	fracs := []float64{0, 0.25, 0.5, 0.75}
	cfg := config(0, false)
	_, hits, misses := sampledEpoch(g, cfg.Batch, cfg.Fanouts, cfg.Seed, fracs...)
	if hits[0] != 0 || misses[0] == 0 || hits[2] == 0 {
		t.Fatalf("count pass: hit words %v, miss words %v", hits, misses)
	}
	var loss uint64
	for i, frac := range fracs {
		for _, pipeline := range []bool{false, true} {
			name := fmt.Sprintf("cache %g pipelined %t", frac, pipeline)
			cfg := config(frac, pipeline)
			cfg.CommMeter = comm.NewMeter()
			realTr, err := core.NewSampledTrainer(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := realTr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 && !pipeline {
				loss = math.Float64bits(rs.Loss)
			} else if math.Float64bits(rs.Loss) != loss {
				t.Errorf("%s: loss %v differs from the first cell's %v", name, rs.Loss, math.Float64frombits(loss))
			}
			if h, m := cfg.CommMeter.Words(sim.CollGatherHit), cfg.CommMeter.Words(sim.CollGatherMiss); h != hits[i] || m != misses[i] {
				t.Errorf("%s: replay metered %d hit and %d miss words, count pass %d and %d", name, h, m, hits[i], misses[i])
			}

			ph, err := core.NewSampledTrainer(&structure, config(frac, pipeline))
			if err != nil {
				t.Fatal(err)
			}
			ps, err := ph.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(ps.EpochSeconds) != math.Float64bits(rs.EpochSeconds) ||
				math.Float64bits(ps.OverlapRatio) != math.Float64bits(rs.OverlapRatio) {
				t.Errorf("%s: phantom epoch %v overlap %v, real %v and %v", name, ps.EpochSeconds, ps.OverlapRatio, rs.EpochSeconds, rs.OverlapRatio)
			}
			if len(ps.KindBusy) != len(rs.KindBusy) {
				t.Errorf("%s: phantom busy kinds %v, real %v", name, ps.KindBusy, rs.KindBusy)
			}
			for k, busy := range rs.KindBusy {
				if math.Float64bits(ps.KindBusy[k]) != math.Float64bits(busy) {
					t.Errorf("%s: phantom %v busy %v, real %v", name, k, ps.KindBusy[k], busy)
				}
			}
			for d := 0; d < cfg.P; d++ {
				if ph.PoolUsed(d) != realTr.PoolUsed(d) {
					t.Errorf("%s: device %d phantom pool %d bytes, real %d", name, d, ph.PoolUsed(d), realTr.PoolUsed(d))
				}
			}
		}
	}
}
