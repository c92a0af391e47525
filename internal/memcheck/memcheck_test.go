// Golden three-way cross-check: for every shipped strategy (including each
// elastic P-1 degradation) the closed-form certified peak slab bytes, the
// static graph-liveness high-water, and the high-water the meter reads off
// a concurrent replay's stamps must agree byte-exactly, and the certified
// resident form must equal the pool's allocated bytes.
package memcheck_test

import (
	"fmt"
	"testing"

	"mggcn/internal/core"
	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
)

// crossWorkers is the triple cross-checks' replay parallelism: the meter
// reads a concurrent replay, even on a one-CPU host.
const crossWorkers = 4

func crossGraph(n int, seed uint64) *graph.Graph {
	return gen.Generate("memcheck", gen.DefaultBTER(n, 6, seed), 12, 4, false)
}

// checkTriple pins one device's three legs to byte-exact equality.
func checkTriple(t *testing.T, fp *memcheck.Footprint,
	live, meter memcheck.LiveStats, dev int, poolUsed int64) {
	t.Helper()
	if fp.Uncertified != "" {
		t.Fatalf("d%d: unexpectedly uncertified: %s", dev, fp.Uncertified)
	}
	key := fmt.Sprintf("d%d", dev)
	certified := fp.SlabBytes
	if lb := live.Bytes[key]; certified != lb {
		t.Errorf("d%d: closed form %d bytes != liveness %d bytes", dev, certified, lb)
	}
	if mb := meter.Bytes[key]; certified != mb {
		t.Errorf("d%d: closed form %d bytes != meter %d bytes", dev, certified, mb)
	}
	if lc := live.Count[key]; fp.SlabCount != lc {
		t.Errorf("d%d: closed form count %d != liveness count %d", dev, fp.SlabCount, lc)
	}
	if mc := meter.Count[key]; fp.SlabCount != mc {
		t.Errorf("d%d: closed form count %d != meter count %d", dev, fp.SlabCount, mc)
	}
	if fp.Resident != poolUsed {
		t.Errorf("d%d: resident form %d != pool used %d", dev, fp.Resident, poolUsed)
	}
}

func TestFullBatchTripleCrossCheck(t *testing.T) {
	g := crossGraph(96, 99)
	strategies := map[string]core.Strategy{
		"1d-row": core.Strategy1DRow, "1d-col": core.Strategy1DCol, "1.5d": core.Strategy15D,
	}
	// The p=3 rows are the elastic P-1 degradations of the p=4 cells:
	// 1d-row and 1d-col shrink in place, 1.5d degrades to 1d-row at odd p
	// (the schedcheck degrade convention).
	cases := []struct {
		strat   string
		p       int
		overlap bool
		layers  int
	}{
		{"1d-row", 1, true, 2},
		{"1d-row", 2, true, 2},
		{"1d-row", 3, true, 2},  // degradation of p=4
		{"1d-row", 3, false, 3}, // degradation, no overlap
		{"1d-row", 4, true, 2},
		{"1d-row", 4, false, 2},
		{"1d-col", 2, true, 2},
		{"1d-col", 3, true, 2}, // degradation of p=4
		{"1d-col", 4, true, 3},
		{"1d-col", 4, false, 2},
		{"1.5d", 2, true, 2},
		{"1.5d", 4, true, 2},
		{"1.5d", 4, false, 2},
		{"1.5d", 4, true, 3},
	}
	for _, tc := range cases {
		// "fmt=csr" is fixed: CSR is the only tile layout, and the segment
		// keeps these subtest IDs the ones earlier test reports list.
		name := fmt.Sprintf("%s/p%d/overlap=%v/fmt=csr/L%d", tc.strat, tc.p, tc.overlap, tc.layers)
		t.Run(name, func(t *testing.T) {
			cfg := core.DefaultConfig(sim.DGXV100(), tc.p, 1)
			cfg.Hidden = 16
			cfg.Layers = tc.layers
			cfg.Strategy = strategies[tc.strat]
			cfg.Overlap = tc.overlap
			cfg.ExecWorkers = crossWorkers
			tr, err := core.NewTrainer(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			live := memcheck.PeakLiveSlabs(tr.LastGraph(), tr.LastGraph().HappensBefore(sim.ExecutorEdges))
			meter := memcheck.MeteredSlabs(tr.LastGraph())
			for d := 0; d < tc.p; d++ {
				fp, err := memcheck.PeakForm(tc.strat, memcheck.Model{
					Dims: tr.Dims, P: tc.p, Device: d, Overlap: tc.overlap,
					Rows: int64(tr.DeviceRows(d)), TileRows: int64(tr.MaxTileRows()), AdjBytes: tr.AdjacencyBytes(d),
				})
				if err != nil {
					t.Fatal(err)
				}
				checkTriple(t, fp, live, meter, d, tr.PoolUsed(d))
			}
		})
	}
}

// TestSlabBoundReproof statically reproves §4.2's L+3 bound: 1d-row with
// overlapped broadcasts at P=4 touches both staging parities on every
// device, so the certified simultaneously-live slab count is exactly L+3.
func TestSlabBoundReproof(t *testing.T) {
	for _, layers := range []int{2, 3, 4} {
		dims := nn.LayerDims(12, 16, layers, 4)
		for d := 0; d < 4; d++ {
			fp, err := memcheck.PeakForm("1d-row", memcheck.Model{Dims: dims, P: 4, Device: d, Overlap: true})
			if err != nil {
				t.Fatal(err)
			}
			if fp.Uncertified != "" {
				t.Fatalf("L=%d d%d: uncertified: %s", layers, d, fp.Uncertified)
			}
			if want := layers + 3; fp.SlabCount != want {
				t.Errorf("L=%d d%d: SlabCount = %d, want L+3 = %d", layers, d, fp.SlabCount, want)
			}
		}
		// Without overlap only one staging slab exists: L+2.
		fp, err := memcheck.PeakForm("1d-row", memcheck.Model{Dims: dims, P: 4, Device: 0, Overlap: false})
		if err != nil {
			t.Fatal(err)
		}
		if want := layers + 2; fp.SlabCount != want {
			t.Errorf("L=%d no-overlap: SlabCount = %d, want L+2 = %d", layers, fp.SlabCount, want)
		}
	}
}

func TestSampledTripleCrossCheck(t *testing.T) {
	g := crossGraph(120, 11)
	const p = 2
	for _, tc := range []struct {
		pipeline bool
		frac     float64
	}{
		{true, 0}, {true, 0.5}, {false, 0}, {false, 0.25},
	} {
		t.Run(fmt.Sprintf("pipeline=%v/frac=%v", tc.pipeline, tc.frac), func(t *testing.T) {
			cfg := core.DefaultSampledConfig(sim.DGXV100(), p, 1)
			cfg.Hidden = 8
			cfg.Layers = 2
			cfg.Fanouts = []int{3, 4}
			cfg.CacheFrac = tc.frac
			cfg.Pipeline = tc.pipeline
			cfg.Batch = 4

			// Size the batch so every device owns the same number of steps,
			// exactly Depth+1 where the train split allows — the fewest the
			// closed form certifies at the pipelined depth.
			probe, err := core.NewSampledTrainer(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tv := probe.TrainVertexCount()
			batch := 0
			for b := tv; b >= 1; b-- {
				if B := (tv + b - 1) / b; B%p == 0 && B/p >= 3 {
					batch = b
					break
				}
			}
			if batch == 0 {
				t.Fatalf("no batch size gives %d train vertices >= 3 equal steps on %d devices", tv, p)
			}
			cfg.Batch = batch
			cfg.ExecWorkers = crossWorkers
			tr, err := core.NewSampledTrainer(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := tr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			steps := stats.Batches / p
			live := memcheck.PeakLiveSlabs(tr.LastGraph(), tr.LastGraph().HappensBefore(sim.ExecutorEdges))
			meter := memcheck.MeteredSlabs(tr.LastGraph())
			caps := tr.FrontierCapacities()
			dims := nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)
			for d := 0; d < p; d++ {
				fp, err := memcheck.PeakForm("sampled", memcheck.Model{
					Dims: dims, P: p, Device: d,
					Caps: caps, CacheRows: int64(tr.Caches()[0].Slab.Rows), Depth: tr.Depth(), Steps: steps,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkTriple(t, fp, live, meter, d, tr.PoolUsed(d))
			}
		})
	}
}

// TestUncertifiedModels exercises every precondition under which the slab
// peak is order-dependent: the footprint must refuse to certify (zero
// SlabBytes, explanatory Uncertified) while still emitting the resident
// form, which allocation-order independence always justifies.
func TestUncertifiedModels(t *testing.T) {
	check := func(t *testing.T, fp *memcheck.Footprint, err error, wantUncert bool) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got := fp.Uncertified != ""; got != wantUncert {
			t.Fatalf("uncertified = %q, want uncertified=%v", fp.Uncertified, wantUncert)
		}
		if wantUncert && fp.SlabBytes != 0 {
			t.Fatal("uncertified footprint must not carry a slab peak")
		}
		if fp.Resident <= 0 {
			t.Fatal("resident form must always be emitted")
		}
	}
	dims1 := []int{12, 4}     // L=1
	dims2 := []int{12, 16, 4} // L=2, max at F1

	fp, err := memcheck.PeakForm("1d-row", memcheck.Model{Dims: dims1, P: 2, Device: 0, Overlap: true})
	check(t, fp, err, true) // L=1 at P>1: broadcast slabs release mid-forward
	fp, err = memcheck.PeakForm("1d-row", memcheck.Model{Dims: dims1, P: 1, Device: 0, Overlap: true})
	check(t, fp, err, false) // single device has no broadcasts: certifiable at L=1
	caps := []int{40, 20, 8}
	fp, err = memcheck.PeakForm("sampled", memcheck.Model{Dims: dims2, P: 2, Device: 0, Caps: caps, Depth: 1, Steps: 1})
	check(t, fp, err, true)
	fp, err = memcheck.PeakForm("sampled", memcheck.Model{Dims: dims2, P: 2, Device: 0, Caps: caps, Depth: 1, Steps: 2})
	check(t, fp, err, false)
	fp, err = memcheck.PeakForm("sampled", memcheck.Model{Dims: dims2, P: 2, Device: 0, Caps: caps, Depth: 2, Steps: 2})
	check(t, fp, err, true)
	fp, err = memcheck.PeakForm("sampled", memcheck.Model{Dims: dims2, P: 2, Device: 0, Caps: caps, Depth: 2, Steps: 3})
	check(t, fp, err, false)

	if _, err := memcheck.PeakForm("1.5d", memcheck.Model{Dims: dims2, P: 3, Device: 0}); err == nil {
		t.Fatal("1.5d at odd P must be a hard error, not an uncertified footprint")
	}
	if _, err := memcheck.PeakForm("1d-row", memcheck.Model{Dims: dims2, P: 2, Device: 5}); err == nil {
		t.Fatal("out-of-range device must be a hard error")
	}
}

// TestPeakLiveSlabsSynthetic pins the liveness pass's semantics on
// hand-built graphs: chained accesses overlap at the handoff task, FIFO
// program order separates otherwise-independent slabs, and truly concurrent
// tasks keep both slabs live.
func TestPeakLiveSlabsSynthetic(t *testing.T) {
	build := func() (*sim.Graph, sim.BufID, sim.BufID) {
		tg := sim.NewGraph(sim.DGXV100(), 2)
		tg.Reg = sim.NewBufRegistry()
		a := tg.Reg.RegisterOn("d0/buf/A", 0, true)
		tg.Reg.SetCapacity(a, 10)
		b := tg.Reg.RegisterOn("d0/buf/B", 0, true)
		tg.Reg.SetCapacity(b, 20)
		return tg, a, b
	}

	t.Run("chain", func(t *testing.T) {
		tg, a, b := build()
		host := tg.Reg.Register("host/x") // not a slab: must be ignored
		tg.Reg.SetCapacity(host, 99)
		t0 := tg.AddCompute(0, sim.KindActivation, "w-a", -1, 0, true)
		tg.DeclareShaped(t0, []sim.ViewShape{sim.OpaqueShape(host)}, []sim.ViewShape{sim.OpaqueShape(a)})
		t1 := tg.AddCompute(0, sim.KindActivation, "a-to-b", -1, 0, true, t0)
		tg.DeclareShaped(t1, []sim.ViewShape{sim.OpaqueShape(a)}, []sim.ViewShape{sim.OpaqueShape(b)})
		t2 := tg.AddCompute(0, sim.KindActivation, "r-b", -1, 0, true, t1)
		tg.DeclareShaped(t2, []sim.ViewShape{sim.OpaqueShape(b)}, nil)
		live := memcheck.PeakLiveSlabs(tg, tg.HappensBefore(sim.ExecutorEdges))
		if live.Bytes["d0"] != 120 || live.Count["d0"] != 2 {
			t.Errorf("chain: got %d bytes / %d slabs, want 120 / 2 (A and B overlap at the handoff)",
				live.Bytes["d0"], live.Count["d0"])
		}
	})

	t.Run("fifo-separates", func(t *testing.T) {
		// No declared deps, but same (device, stream): program order forces
		// A's last access before B's first, so they are never both live.
		tg, a, b := build()
		t0 := tg.AddCompute(0, sim.KindActivation, "w-a", -1, 0, true)
		tg.DeclareShaped(t0, nil, []sim.ViewShape{sim.OpaqueShape(a)})
		t1 := tg.AddCompute(0, sim.KindActivation, "w-b", -1, 0, true)
		tg.DeclareShaped(t1, nil, []sim.ViewShape{sim.OpaqueShape(b)})
		live := memcheck.PeakLiveSlabs(tg, tg.HappensBefore(sim.ExecutorEdges))
		if live.Bytes["d0"] != 80 || live.Count["d0"] != 1 {
			t.Errorf("fifo: got %d bytes / %d slabs, want 80 / 1 (program order separates A and B)",
				live.Bytes["d0"], live.Count["d0"])
		}
	})

	t.Run("no-registry", func(t *testing.T) {
		// Graph.Reg is optional: declared accesses without a registry name
		// no slabs, so the result is empty rather than a nil dereference.
		tg, a, _ := build()
		t0 := tg.AddCompute(0, sim.KindActivation, "w-a", -1, 0, true)
		tg.DeclareShaped(t0, nil, []sim.ViewShape{sim.OpaqueShape(a)})
		tg.Reg = nil
		live := memcheck.PeakLiveSlabs(tg, tg.HappensBefore(sim.ExecutorEdges))
		if len(live.Bytes) != 0 || len(live.Count) != 0 {
			t.Errorf("no registry: got %v / %v, want empty stats", live.Bytes, live.Count)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// Same slabs accessed from different devices' streams with no
		// ordering: both MAY be live at either task.
		tg, a, b := build()
		t0 := tg.AddCompute(0, sim.KindActivation, "w-a", -1, 0, true)
		tg.DeclareShaped(t0, nil, []sim.ViewShape{sim.OpaqueShape(a)})
		t1 := tg.AddCompute(1, sim.KindActivation, "w-b", -1, 0, true)
		tg.DeclareShaped(t1, nil, []sim.ViewShape{sim.OpaqueShape(b)})
		live := memcheck.PeakLiveSlabs(tg, tg.HappensBefore(sim.ExecutorEdges))
		if live.Bytes["d0"] != 120 || live.Count["d0"] != 2 {
			t.Errorf("concurrent: got %d bytes / %d slabs, want 120 / 2",
				live.Bytes["d0"], live.Count["d0"])
		}
	})
}

// TestMeteredSlabsStampSweep pins the meter's sweep on hand-built stamps.
// Slabs A (10 words), B (20) and the capacity-zero handoff slot S live on
// d0, D (30) on d1; each case lists its tasks' accesses and stamps.
func TestMeteredSlabsStampSweep(t *testing.T) {
	type task struct {
		dev           int
		reads, writes string
		at            sim.Stamp // the zero Stamp: the task never ran
	}
	for _, tc := range []struct {
		name  string
		tasks []task
		want  map[string][2]int64 // device -> {bytes, count}
	}{
		// A's release at 5 comes before B's charge at 5: never both live.
		{"equal-instants", []task{{0, "", "A", sim.Stamp{Start: 1, End: 5}}, {0, "", "B", sim.Stamp{Start: 5, End: 9}}},
			map[string][2]int64{"d0": {80, 1}}},
		// The middle task releases A and charges B: both live while it runs.
		{"handoff-task", []task{{0, "", "A", sim.Stamp{Start: 1, End: 5}}, {0, "A", "B", sim.Stamp{Start: 6, End: 9}},
			{0, "B", "", sim.Stamp{Start: 10, End: 12}}},
			map[string][2]int64{"d0": {120, 2}}},
		// A's last access in issue order never ran, so A releases at 5, not
		// never; B's first access never ran, so B charges from 6, not from
		// the zero Stamp, and a task recorded past the stamps (not replayed)
		// charges nothing either.
		{"never-ran", []task{{0, "", "A", sim.Stamp{Start: 1, End: 5}}, {0, "A", "B", sim.Stamp{}},
			{0, "B", "", sim.Stamp{Start: 6, End: 9}}, {1, "", "D", sim.Stamp{Start: 6, End: 9}}, {0, "", "B", sim.Stamp{}}},
			map[string][2]int64{"d0": {80, 1}, "d1": {120, 1}}},
		// The slot counts as a slab and weighs nothing.
		{"slot", []task{{0, "", "AS", sim.Stamp{Start: 1, End: 5}}, {0, "S", "", sim.Stamp{Start: 6, End: 9}}},
			map[string][2]int64{"d0": {40, 2}}},
		// Overlapping tasks on two devices charge each device its own slab.
		{"two-devices", []task{{0, "", "A", sim.Stamp{Start: 1, End: 5}}, {1, "", "D", sim.Stamp{Start: 2, End: 6}},
			{0, "", "B", sim.Stamp{Start: 6, End: 8}}},
			map[string][2]int64{"d0": {80, 1}, "d1": {120, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tg := sim.NewGraph(sim.DGXV100(), 2)
			tg.Reg = sim.NewBufRegistry()
			bufs := map[rune]sim.BufID{}
			for _, b := range []struct {
				name rune
				dev  int
				cap  int64
			}{{'A', 0, 10}, {'B', 0, 20}, {'S', 0, 0}, {'D', 1, 30}} {
				bufs[b.name] = tg.Reg.RegisterOn(string(b.name), b.dev, true)
				tg.Reg.SetCapacity(bufs[b.name], b.cap)
			}
			shapes := func(names string) (out []sim.ViewShape) {
				for _, n := range names {
					out = append(out, sim.OpaqueShape(bufs[n]))
				}
				return out
			}
			for i, tk := range tc.tasks {
				id := tg.AddCompute(tk.dev, sim.KindActivation, "t", -1, 0, true)
				tg.DeclareShaped(id, shapes(tk.reads), shapes(tk.writes))
				// A last task that never ran is left past the stamps, as a
				// task recorded after the replay is.
				if i < len(tc.tasks)-1 || tk.at != (sim.Stamp{}) {
					tg.Stamps = append(tg.Stamps, tk.at)
				}
			}
			got := memcheck.MeteredSlabs(tg)
			for dev, w := range tc.want {
				if got.Bytes[dev] != w[0] || int64(got.Count[dev]) != w[1] {
					t.Errorf("%s: got %d bytes / %d slabs, want %d / %d", dev, got.Bytes[dev], got.Count[dev], w[0], w[1])
				}
			}
			if len(got.Count) != len(tc.want) {
				t.Errorf("metered devices %v, want %v", got.Count, tc.want)
			}
		})
	}
}

// TestPeakFormNames: every strategy name yields a form, an unknown one an
// error.
func TestPeakFormNames(t *testing.T) {
	model := memcheck.Model{Dims: []int{12, 16, 4}, P: 4, Overlap: true, Caps: []int{64, 32, 8}, Depth: 2, Steps: 4}
	for _, name := range []string{"1d-row", "1d-col", "1.5d", "sampled"} {
		if fp, err := memcheck.PeakForm(name, model); err != nil || fp == nil || fp.Resident <= 0 {
			t.Fatalf("strategy %q has no peak form: %v, %v", name, fp, err)
		}
	}
	if _, err := memcheck.PeakForm("no-such-strategy", model); err == nil {
		t.Fatalf("unknown strategy must error")
	}
}

func TestAnalyticAdjacencyBytes(t *testing.T) {
	for _, tc := range []struct {
		p, c int
		want int64
	}{
		// 1D: 4 blocks of 250 rows, all 4 tiles of the block row, share 2000.
		{4, 1, 2 * (4*251*8 + 2000*8)},
		// 1.5D: 2 blocks of 500 rows, only the replica group's 1 stage, share 2000.
		{4, 2, 2 * (1*501*8 + 2000*8)},
		// 1.5D at P=2: one block of 1000 rows, its one tile is the whole matrix.
		{2, 2, 2 * (1*1001*8 + 8000*8)},
		// 1.5D at P=6: 3 blocks of 334 rows, stages 0 and 2, share 8000*2/9.
		{6, 2, 2 * (2*335*8 + 1777*8)},
	} {
		got, err := memcheck.AnalyticAdjacencyBytes(1000, 8000, tc.p, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("p=%d c=%d: got %d, want %d", tc.p, tc.c, got, tc.want)
		}
	}
	if _, err := memcheck.AnalyticAdjacencyBytes(1000, 8000, 0, 1); err == nil {
		t.Error("p=0 must error")
	}
	if _, err := memcheck.AnalyticAdjacencyBytes(1000, 8000, 3, 2); err == nil {
		t.Error("c=2 at odd p must error")
	}
}

// TestFitCatalog answers ROADMAP item 5's question deterministically: at
// Scale 1 on a DGX-A100, the small catalog graphs fit every strategy while
// the verdict set stays complete and internally consistent.
func TestFitCatalog(t *testing.T) {
	verdicts, err := memcheck.FitCatalog(sim.DGXA100(), 8, 1, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]memcheck.FitVerdict{}
	for _, v := range verdicts {
		if v.Bytes <= 0 {
			t.Errorf("%s/%s: nonpositive resident bytes %d", v.Dataset, v.Strategy, v.Bytes)
		}
		if v.Fits != (v.Bytes <= v.Budget) {
			t.Errorf("%s/%s: inconsistent verdict", v.Dataset, v.Strategy)
		}
		byKey[v.Dataset+"/"+v.Strategy] = v
	}
	for _, name := range gen.AllNames() {
		for _, strat := range []string{"1d-row", "1d-col", "1.5d", "cagnet"} {
			if _, ok := byKey[name+"/"+strat]; !ok {
				t.Errorf("missing verdict for %s/%s", name, strat)
			}
		}
	}
	if v, ok := byKey["reddit/1d-row"]; ok && !v.Fits {
		t.Errorf("reddit at scale 1 must fit a DGX-A100 under 1d-row, got %d > %d", v.Bytes, v.Budget)
	}
	// ROADMAP item 5's question gets a deterministic answer: Papers at
	// scale 1 with hidden 512 blows the 80 GiB budget full-batch, and
	// FitCatalog says so rather than guessing.
	if v, ok := byKey["papers/1d-row"]; !ok {
		t.Error("papers must receive a fit verdict at scale 1")
	} else if v.Fits {
		t.Errorf("papers at scale 1, hidden 512, P=8 reported as fitting 80 GiB (%d B)", v.Bytes)
	}
	if _, err := memcheck.FitCatalog(sim.DGXA100(), 8, 0, 512, 2); err == nil {
		t.Error("scale 0 must error")
	}
	// Odd p skips 1.5d rather than failing.
	odd, err := memcheck.FitCatalog(sim.DGXA100(), 3, 1024, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range odd {
		if v.Strategy == "1.5d" {
			t.Error("1.5d must be skipped at odd p")
		}
	}
}
