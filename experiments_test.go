package mggcn

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mggcn/internal/comm"
	"mggcn/internal/core"
	"mggcn/internal/gen"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
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
	datasetsGolden    = "testdata/datasets.golden"
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
		files := map[string]string{experimentsGolden: got.String(), experimentsOutput: reports.String(), datasetsGolden: datasetLines()}
		old := map[string]string{}
		for file, content := range files {
			b, _ := os.ReadFile(file)
			old[file] = string(b)
			if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		reportMoves(t, old, files)
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

// reportMoves logs, under -update, how far the run moved from the files it
// rewrote (go test -run ExperimentsGolden . -update -v shows it): per
// experiment how many Values moved, a key that came or went included, and
// the largest relative move with its key; per dataset of datasetLines its
// line before and after; per file the lines that moved.
func reportMoves(t *testing.T, old, cur map[string]string) {
	t.Helper()
	values := func(golden string) map[string]map[string]float64 {
		m := map[string]map[string]float64{}
		for _, l := range sectionLines(golden) {
			id, kv, _ := strings.Cut(l, ": ")
			k, v, _ := strings.Cut(kv, "=")
			b, _ := strconv.ParseUint(v, 16, 64)
			if m[id] == nil {
				m[id] = map[string]float64{}
			}
			m[id][k] = math.Float64frombits(b)
		}
		return m
	}
	before, after := values(old[experimentsGolden]), values(cur[experimentsGolden])
	for _, e := range Experiments() {
		keys := map[string]bool{}
		for k := range before[e.ID] {
			keys[k] = true
		}
		for k := range after[e.ID] {
			keys[k] = true
		}
		moved, worst, worstKey := 0, 0.0, ""
		for k := range keys {
			b, inB := before[e.ID][k]
			a, inA := after[e.ID][k]
			if inB && inA && math.Float64bits(a) == math.Float64bits(b) {
				continue
			}
			rel := math.Inf(1) // a key that came or went, or a move off zero
			if inB && inA && b != 0 {
				rel = math.Abs(a-b) / math.Abs(b)
			} else if inB && inA && a == 0 {
				rel = 0
			}
			if moved++; worstKey == "" || rel > worst || rel == worst && k < worstKey {
				worst, worstKey = rel, k
			}
		}
		if moved == 0 {
			t.Logf("move %s: 0 of %d values", e.ID, len(keys))
		} else {
			t.Logf("move %s: %d of %d values, largest %.3g at %s", e.ID, moved, len(keys), worst, worstKey)
		}
	}
	was := map[string]string{}
	for _, l := range strings.Split(old[datasetsGolden], "\n") {
		name, _, _ := strings.Cut(l, " ")
		was[name] = l
	}
	for _, l := range strings.Split(strings.TrimSpace(cur[datasetsGolden]), "\n") {
		if name, _, _ := strings.Cut(l, " "); was[name] != l {
			if _, ok := was[name]; !ok {
				was[name] = name + " (none)"
			}
			t.Logf("move dataset: before %s", was[name])
			t.Logf("move dataset: after  %s", l)
		}
	}
	for _, file := range []string{experimentsGolden, experimentsOutput, datasetsGolden} {
		t.Logf("move %s: %d lines", file, linesMoved(old[file], cur[file]))
	}
}

// linesMoved counts the lines of a that b does not hold, and of b that a
// does not, each line as often as it occurs.
func linesMoved(a, b string) int {
	count := map[string]int{}
	for _, l := range strings.Split(a, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(b, "\n") {
		count[l]--
	}
	n := 0
	for _, c := range count {
		n += max(c, -c)
	}
	return n
}

// datasetLines is testdata/datasets.golden, the shape of every generated
// dataset: each catalog dataset, the Fig 9 family and the repository
// benchmark's four workload graphs (their shapes as benchmark/workloads.go
// sets them: seed 1, 47 classes). Only -update computes it, as the "before"
// of the next move report; a golden experiment fails first when a graph
// moves.
func datasetLines() string {
	type dataset struct {
		name    string
		cfg     gen.BTERConfig
		classes int
	}
	var sets []dataset
	for _, name := range gen.AllNames() {
		s := gen.Catalog()[name]
		sets = append(sets, dataset{name, gen.DefaultBTER(s.GenN(), s.AvgDegree, s.Seed), s.Classes})
	}
	for f := 1; f <= 128; f *= 2 {
		s := gen.DegreeScaledSpec(f)
		sets = append(sets, dataset{s.Name, gen.DefaultBTER(s.GenN(), s.AvgDegree, s.Seed), s.Classes})
	}
	for _, w := range []struct {
		name string
		n    int
		deg  float64
	}{{"fullbatch-gemm", 40000, 52}, {"fullbatch-spmm", 16384, 384}, {"sampled-fanout", 16384, 52}, {"sampled-thin", 120000, 15}} {
		sets = append(sets, dataset{w.name, gen.DefaultBTER(w.n, w.deg, 1), 47})
	}
	var out strings.Builder
	for _, d := range sets {
		out.WriteString(datasetShape(d.name, d.cfg, d.classes))
	}
	return out.String()
}

// datasetShape is one line of datasetLines: the undirected edges, the
// maximum degree, the mean local clustering coefficient over an even sample
// of about 512 vertices (0 below degree 2), and the smallest and largest
// class shares. The labels do not depend on the feature width, so the
// dataset is generated one feature wide.
func datasetShape(name string, cfg gen.BTERConfig, classes int) string {
	g := gen.Generate(name, cfg, 1, classes, false)
	n, adj := g.N(), g.Adj
	maxDeg := 0
	for v := range n {
		maxDeg = max(maxDeg, int(adj.RowPtr[v+1]-adj.RowPtr[v]))
	}
	mark := make([]bool, n)
	var clustering float64
	sampled := 0
	for v := 0; v < n; v += max(n/512, 1) {
		sampled++
		cols, _ := adj.Row(v)
		if len(cols) < 2 {
			continue
		}
		for _, u := range cols {
			mark[u] = true
		}
		closed := 0 // each triangle at v twice, once from either of its other ends
		for _, u := range cols {
			nb, _ := adj.Row(int(u))
			for _, w := range nb {
				if mark[w] {
					closed++
				}
			}
		}
		for _, u := range cols {
			mark[u] = false
		}
		clustering += float64(closed) / float64(len(cols)*(len(cols)-1))
	}
	share := make([]int, classes)
	for _, l := range g.Labels {
		share[l]++
	}
	return fmt.Sprintf("%s edges=%d max_degree=%d clustering=%.4f class_share=%.4f-%.4f\n", name, adj.NNZ()/2, maxDeg,
		clustering/float64(sampled), float64(slices.Min(share))/float64(n), float64(slices.Max(share))/float64(n))
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

// TestMLPBaselineIsGraphBlind holds the accuracy experiment's MLP baseline to
// what it stands for: on a copy of the experiment's dataset with every edge
// removed, its test accuracy has the same bits.
func TestMLPBaselineIsGraphBlind(t *testing.T) {
	ds := accuracyDataset()
	edgeless := *ds.g
	n := edgeless.N()
	edgeless.Adj = &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	want := mlpBaselineAccuracy(ds, 40)
	got := mlpBaselineAccuracy(&Dataset{g: &edgeless, scale: 1, spec: ds.spec}, 40)
	if want == 0 || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("MLP test accuracy %v on the dataset, %v with its %d edges removed", want, got, ds.M())
	}
}
