package mggcn

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"mggcn/internal/baseline"
	"mggcn/internal/core"
	"mggcn/internal/fault"
	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
	"mggcn/internal/report"
	"mggcn/internal/sample"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
	"mggcn/internal/trace"
)

// ExperimentResult is one regenerated table or figure: a formatted text
// report plus the key numbers, addressable for programmatic checks.
type ExperimentResult struct {
	ID     string
	Title  string
	Text   string
	Values map[string]float64
}

// Experiment is a registered reproduction of one of the paper's tables or
// figures.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*ExperimentResult, error)
}

// Experiments returns every registered experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: benchmark datasets (generated vs paper)", runTable1},
		{"fig5", "Fig 5: runtime breakdown of GCN operations (DGX-V100)", runFig5},
		{"fig6", "Fig 6: SpMM timeline, original vs permuted ordering (Products, 4 GPUs)", runFig6},
		{"fig7", "Fig 7: permutation and overlap speedups (DGX-V100)", runFig7},
		{"fig8", "Fig 8: SpMM timeline with communication overlap (Products, 4 GPUs)", runFig8},
		{"fig9", "Fig 9: speedup vs scaled average degree (BTER over Arxiv)", runFig9},
		{"fig10", "Fig 10: epoch runtime on DGX-V100 (CAGNET / DGL / MG-GCN)", runFig10},
		{"fig11", "Fig 11: speedup w.r.t. DGL on DGX-V100", runFig11},
		{"fig12", "Fig 12: per-GPU memory vs number of layers (Reddit, hidden 512)", runFig12},
		{"fig13", "Fig 13: epoch runtime on DGX-A100 (DGL / MG-GCN)", runFig13},
		{"fig14", "Fig 14: speedup w.r.t. DGL on DGX-A100", runFig14},
		{"table2", "Table 2: DistGNN epoch times (regenerated cost model)", runTable2},
		{"table3", "Table 3: MG-GCN epoch times on DGX-A100", runTable3},
		{"sec51", "Sec 5.1: 1D vs 1.5D communication analysis", runSec51},
		{"accuracy", "Sec 6 (model): accuracy parity, multi-GPU vs single device", runAccuracy},
		{"strategies", "Extension: executed 1D-row / 1D-col / 1.5D strategy comparison", runStrategies},
		{"ordering", "Extension (Sec 5.2 ablation): vertex ordering comparison", runOrdering},
		{"explosion", "Extension (Sec 1 motivation): neighborhood explosion of mini-batching", runExplosion},
		{"sampled", "Extension: sampled pipeline, cache fraction x pipelining and recovery overhead (Products, 4 GPUs)", runSampled},
		{"gat", "Extension (Sec 7 future work): GAT training on the SDDMM kernel", runGAT},
		{"multinode", "Extension (Sec 7 future work): multi-node scaling wall", runMultiNode},
		{"whatif", "Extension: epoch sensitivity to NVLinks / HBM bandwidth / L2", runWhatIf},
	}
}

// RunExperiment runs the experiment with the given ID.
func RunExperiment(id string) (*ExperimentResult, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run()
		}
	}
	ids := make([]string, 0)
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return nil, fmt.Errorf("mggcn: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// figureDatasets is the dataset order of the paper's figures.
var figureDatasets = []string{"cora", "arxiv", "products", "proteins", "reddit"}

// gpuCounts is the paper's GPU sweep.
var gpuCounts = []int{1, 2, 4, 8}

// degreeFactors is Fig 9's average-degree multipliers over Arxiv's profile.
var degreeFactors = []int{1, 2, 4, 8, 16, 32, 64, 128}

// mgEpochSeconds runs one phantom MG-GCN epoch; returns -1 on OOM.
func mgEpochSeconds(machine MachineSpec, name string, p, hidden, layers int, ord Ordering, overlap bool) (float64, error) {
	ds, err := LoadDataset(name, true)
	if err != nil {
		return 0, err
	}
	o := DefaultOptions(machine, p)
	o.Hidden, o.Layers = hidden, layers
	o.Ordering, o.Overlap = ord, overlap
	cfg, err := o.coreConfig(ds)
	if err != nil {
		return 0, err
	}
	return epochSeconds(ds.g, cfg)
}

// epochSeconds runs one epoch of a full-batch trainer under cfg; returns -1
// when the trainer does not fit the machine.
func epochSeconds(g *graph.Graph, cfg core.Config) (float64, error) {
	tr, err := core.NewTrainer(g, cfg)
	if IsOOM(err) {
		return -1, nil
	}
	if err != nil {
		return 0, err
	}
	stats, err := tr.RunEpoch()
	if err != nil {
		return 0, err
	}
	return stats.EpochSeconds, nil
}

// runTable1 regenerates Table 1: per dataset, the paper-scale statistics
// and the generated instance's actual counts — the catalog, then the Fig 9
// family (Arxiv's degree profile at fixed n, average degree scaled 1-128x).
func runTable1() (*ExperimentResult, error) {
	tab := report.NewTable("Table 1 (generated at 1/Scale, avg degree preserved)",
		"n(paper)", "m(paper)", "d0", "classes", "k(paper)", "scale", "n(gen)", "m(gen)", "k(gen)")
	vals := map[string]float64{}
	row := func(ds *Dataset) {
		s := ds.spec
		tab.AddRow(s.Name,
			fmt.Sprintf("%d", s.FullN), fmt.Sprintf("%d", s.FullM),
			fmt.Sprintf("%d", s.FeatDim), fmt.Sprintf("%d", s.Classes),
			fmt.Sprintf("%.0f", s.AvgDegree), fmt.Sprintf("%d", s.Scale),
			fmt.Sprintf("%d", ds.N()), fmt.Sprintf("%d", ds.M()),
			fmt.Sprintf("%.1f", ds.AvgDegree()))
		vals[s.Name+"/k"] = ds.AvgDegree()
		vals[s.Name+"/k_paper"] = s.AvgDegree
	}
	for _, name := range DatasetNames() {
		ds, err := LoadDataset(name, true)
		if err != nil {
			return nil, err
		}
		row(ds)
	}
	for _, f := range degreeFactors {
		row(DegreeScaledDataset(f, true))
	}
	return &ExperimentResult{ID: "table1", Title: "Table 1", Text: tab.String(), Values: vals}, nil
}

// runFig5 regenerates the runtime breakdown: per dataset and GPU count,
// the percentage of per-GPU busy time in each operation class.
func runFig5() (*ExperimentResult, error) {
	var b strings.Builder
	vals := map[string]float64{}
	for _, name := range figureDatasets {
		ds, err := LoadDataset(name, true)
		if err != nil {
			return nil, err
		}
		for _, p := range gpuCounts {
			o := DefaultOptions(DGXV100(), p)
			tr, err := NewTrainer(ds, o)
			if IsOOM(err) {
				fmt.Fprintf(&b, "%-9s P=%d: Out of Memory\n", name, p)
				vals[fmt.Sprintf("%s/%d/oom", name, p)] = 1
				continue
			}
			if err != nil {
				return nil, err
			}
			stats, err := tr.RunEpoch()
			if err != nil {
				return nil, err
			}
			pct := stats.BreakdownPercent()
			m := map[string]float64{}
			for _, k := range sim.Kinds() {
				m[k.String()] = pct[k]
				vals[fmt.Sprintf("%s/%d/%s", name, p, k)] = pct[k]
			}
			fmt.Fprintf(&b, "%-9s P=%d: %s\n", name, p, report.Percentages(m))
		}
	}
	return &ExperimentResult{ID: "fig5", Title: "Fig 5", Text: b.String(), Values: vals}, nil
}

// timelineExperiment renders the Products 4-GPU forward-SpMM Gantt chart
// under the given ordering/overlap settings and returns the chart plus the
// epoch time.
func timelineExperiment(ord Ordering, overlap bool) (string, float64, []float64, error) {
	ds, err := LoadDataset("products", true)
	if err != nil {
		return "", 0, nil, err
	}
	o := DefaultOptions(DGXV100(), 4)
	o.Ordering, o.Overlap = ord, overlap
	tr, err := NewTrainer(ds, o)
	if err != nil {
		return "", 0, nil, err
	}
	stats, err := tr.RunEpoch()
	if err != nil {
		return "", 0, nil, err
	}
	spans := trace.Extract(stats.Tasks, stats.Sched, "fwd0/spmm")
	chart := trace.Gantt(spans, 4, 76)
	busy := trace.BusyFraction(spans, 4, sim.StreamCompute)
	return chart, stats.EpochSeconds, busy, nil
}

// runFig6 contrasts the SpMM timeline under the original and permuted
// orderings (no overlap), Products on 4 GPUs.
func runFig6() (*ExperimentResult, error) {
	var b strings.Builder
	vals := map[string]float64{}
	for _, ord := range []Ordering{OrderingNatural, OrderingRandom} {
		chart, epoch, busy, err := timelineExperiment(ord, false)
		if err != nil {
			return nil, err
		}
		label := "original"
		if ord == OrderingRandom {
			label = "permuted"
		}
		fmt.Fprintf(&b, "--- %s ordering (epoch %s) ---\n%s", label, report.Seconds(epoch), chart)
		vals[label+"/epoch"] = epoch
		min, max := busy[0], busy[0]
		for _, f := range busy {
			if f < min {
				min = f
			}
			if f > max {
				max = f
			}
		}
		if min > 0 {
			vals[label+"/busy_imbalance"] = max / min
		}
	}
	return &ExperimentResult{ID: "fig6", Title: "Fig 6", Text: b.String(), Values: vals}, nil
}

// runFig7 regenerates the ablation bars: speedup of permutation over the
// original ordering, and of permutation+overlap, per dataset and GPU count.
func runFig7() (*ExperimentResult, error) {
	var b strings.Builder
	vals := map[string]float64{}
	for _, name := range figureDatasets {
		var labels []string
		var bars []float64
		for _, p := range gpuCounts {
			orig, err := mgEpochSeconds(DGXV100(), name, p, 512, 2, OrderingNatural, false)
			if err != nil {
				return nil, err
			}
			perm, err := mgEpochSeconds(DGXV100(), name, p, 512, 2, OrderingRandom, false)
			if err != nil {
				return nil, err
			}
			both, err := mgEpochSeconds(DGXV100(), name, p, 512, 2, OrderingRandom, true)
			if err != nil {
				return nil, err
			}
			if orig < 0 || perm < 0 || both < 0 {
				labels = append(labels, fmt.Sprintf("%d-Perm", p))
				bars = append(bars, 0)
				continue
			}
			vals[fmt.Sprintf("%s/%d/perm", name, p)] = orig / perm
			vals[fmt.Sprintf("%s/%d/perm+ovlp", name, p)] = orig / both
			labels = append(labels, fmt.Sprintf("%d-Perm", p))
			bars = append(bars, orig/perm)
			if p > 1 {
				labels = append(labels, fmt.Sprintf("%d-Perm+Ovlp", p))
				bars = append(bars, orig/both)
			}
		}
		b.WriteString(report.Bars(name+" (speedup w.r.t. original ordering)", labels, bars, 40))
	}
	return &ExperimentResult{ID: "fig7", Title: "Fig 7", Text: b.String(), Values: vals}, nil
}

// runFig8 renders the overlapped vs non-overlapped SpMM timeline
// (permuted Products, 4 GPUs).
func runFig8() (*ExperimentResult, error) {
	var b strings.Builder
	vals := map[string]float64{}
	for _, overlap := range []bool{false, true} {
		chart, epoch, _, err := timelineExperiment(OrderingRandom, overlap)
		if err != nil {
			return nil, err
		}
		label := "no-overlap"
		if overlap {
			label = "overlap"
		}
		fmt.Fprintf(&b, "--- %s (epoch %s) ---\n%s", label, report.Seconds(epoch), chart)
		vals[label+"/epoch"] = epoch
	}
	return &ExperimentResult{ID: "fig8", Title: "Fig 8", Text: b.String(), Values: vals}, nil
}

// runFig9 sweeps the BTER degree-scaled Arxiv family and reports speedup
// over the 1-GPU runtime for 1-8 GPUs.
func runFig9() (*ExperimentResult, error) {
	tab := report.NewTable("Speedup w.r.t. 1 GPU (DGX-V100, hidden 512)", "1", "2", "4", "8")
	vals := map[string]float64{}
	for _, f := range degreeFactors {
		ds := DegreeScaledDataset(f, true)
		var base float64
		cells := make([]string, 0, len(gpuCounts))
		for _, p := range gpuCounts {
			o := DefaultOptions(DGXV100(), p)
			tr, err := NewTrainer(ds, o)
			if err != nil {
				return nil, err
			}
			stats, err := tr.RunEpoch()
			if err != nil {
				return nil, err
			}
			sec := stats.EpochSeconds
			if p == 1 {
				base = sec
			}
			sp := base / sec
			vals[fmt.Sprintf("%dx/%d", f, p)] = sp
			cells = append(cells, report.Speedup(sp))
		}
		tab.AddRow(fmt.Sprintf("%dx", f), cells...)
	}
	return &ExperimentResult{ID: "fig9", Title: "Fig 9", Text: tab.String(), Values: vals}, nil
}

// comparisonMemo caches the expensive Fig 10/13 sweeps so the speedup
// views (Figs 11/14) do not recompute them.
var comparisonMemo = map[string]comparisonEntry{}

type comparisonEntry struct {
	tab  *report.Table
	vals map[string]float64
}

// comparisonTable builds the Fig 10/13 epoch-time table on a machine,
// optionally including CAGNET. Results are memoized per machine.
func comparisonTable(machine MachineSpec, withCAGNET bool) (*report.Table, map[string]float64, error) {
	key := fmt.Sprintf("%s/%t", machine.Name, withCAGNET)
	if hit, ok := comparisonMemo[key]; ok {
		return hit.tab, hit.vals, nil
	}
	tab, vals, err := comparisonTableUncached(machine, withCAGNET)
	if err == nil {
		comparisonMemo[key] = comparisonEntry{tab, vals}
	}
	return tab, vals, err
}

func comparisonTableUncached(machine MachineSpec, withCAGNET bool) (*report.Table, map[string]float64, error) {
	cols := slices.Insert(comparisonColumns(withCAGNET), len(gpuCounts), "DGL/1")
	tab := report.NewTable(fmt.Sprintf("Epoch runtime (s) on %s, 2 layers x 512", machine.Name), cols...)
	vals := map[string]float64{}
	for _, name := range figureDatasets {
		ds, err := LoadDataset(name, true)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range gpuCounts {
			cfg := core.DefaultConfig(machine, p, ds.scale)
			if vals[fmt.Sprintf("%s/mggcn/%d", name, p)], err = epochSeconds(ds.g, cfg); err != nil {
				return nil, nil, err
			}
			if !withCAGNET {
				continue
			}
			if vals[fmt.Sprintf("%s/cagnet/%d", name, p)], err = baselineEpochSeconds(ds, baseline.CAGNET(cfg)); err != nil {
				return nil, nil, err
			}
		}
		if vals[name+"/dgl/1"], err = baselineEpochSeconds(ds, baseline.DGL(core.DefaultConfig(machine, 1, ds.scale))); err != nil {
			return nil, nil, err
		}
		var cells []string
		for _, col := range cols {
			cells = append(cells, report.Seconds(vals[comparisonKey(name, col)]))
		}
		tab.AddRow(name, cells...)
	}
	return tab, vals, nil
}

// comparisonColumns lists the multi-GPU columns of Figs 10 and 11
// (withCAGNET) or 13 and 14: each system at each GPU count.
func comparisonColumns(withCAGNET bool) []string {
	systems := []string{"MG-GCN"}
	if withCAGNET {
		systems = append(systems, "CAGNET")
	}
	var cols []string
	for _, system := range systems {
		for _, p := range gpuCounts {
			cols = append(cols, fmt.Sprintf("%s/%d", system, p))
		}
	}
	return cols
}

// comparisonKey is the Values key of dataset name's cell in column col:
// "MG-GCN/4" is name+"/mggcn/4".
func comparisonKey(name, col string) string {
	return name + "/" + strings.ToLower(strings.ReplaceAll(col, "-", ""))
}

// runFig10 regenerates the DGX-V100 epoch-runtime comparison.
func runFig10() (*ExperimentResult, error) {
	tab, vals, err := comparisonTable(DGXV100(), true)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{ID: "fig10", Title: "Fig 10", Text: tab.String(), Values: vals}, nil
}

// speedupVsDGL converts a comparison's values into speedups w.r.t. DGL's
// single-GPU time; a cell reads 0 where either time is OOM.
func speedupVsDGL(vals map[string]float64, withCAGNET bool) (*report.Table, map[string]float64) {
	cols := comparisonColumns(withCAGNET)
	tab := report.NewTable("Speedup w.r.t. DGL (1 GPU)", cols...)
	out := map[string]float64{}
	for _, name := range figureDatasets {
		dgl := vals[name+"/dgl/1"]
		var cells []string
		for _, col := range cols {
			k := comparisonKey(name, col)
			s := 0.0
			if t := vals[k]; t > 0 && dgl > 0 {
				s = dgl / t
			}
			out[k] = s
			cells = append(cells, report.Speedup(s))
		}
		tab.AddRow(name, cells...)
	}
	return tab, out
}

// runFig11 regenerates the DGX-V100 speedup-vs-DGL figure.
func runFig11() (*ExperimentResult, error) {
	_, vals, err := comparisonTable(DGXV100(), true)
	if err != nil {
		return nil, err
	}
	tab, out := speedupVsDGL(vals, true)
	return &ExperimentResult{ID: "fig11", Title: "Fig 11", Text: tab.String(), Values: out}, nil
}

// maxFitLayers caps deepestFit: no column of Fig 12 gets near it.
const maxFitLayers = 4096

// deepestFit returns the largest depth L <= maxFitLayers whose footprint
// bytes(L) fits budget, or 0 when one layer does not. A footprint never
// shrinks as L grows (each layer adds a slab and a weight matrix), so probing
// L = 1, 2, 4, ... until one fails and then bisecting finds it in about
// 2 log2 L evaluations. A probe's error is returned as is.
func deepestFit(budget int64, bytes func(layers int) (int64, error)) (int, error) {
	lo, hi := 0, maxFitLayers+1 // lo fits (0 trivially); hi does not, or is past the cap
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if hi > maxFitLayers { // nothing has failed yet
			mid = max(1, 2*lo)
		}
		b, err := bytes(mid)
		if err != nil {
			return 0, err
		}
		if b <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// baselineResident is a baseline's per-GPU footprint for ds at full scale,
// hidden 512, on p GPUs (CAGNET on p, DGL on one): memcheck's analytic form,
// whose three buffers per layer are never reused (Fig 12's DGL and CAGNET
// lines).
func baselineResident(ds *Dataset, p, layers int) (int64, error) {
	S := int64(ds.scale)
	dims := nn.LayerDims(ds.g.FeatDim, 512, layers, ds.g.Classes)
	return memcheck.AnalyticResident("cagnet", int64(ds.g.N())*S, ds.g.M()*S, dims, p, false)
}

// baselineEpochSeconds times one epoch of a baseline's configuration on ds
// (hidden 512), or -1 where the baseline's own footprint does not fit a GPU:
// it keeps three buffers per layer, so the paper's DGL and CAGNET run out of
// memory on Proteins. The trainer that times it may too.
func baselineEpochSeconds(ds *Dataset, cfg core.Config) (float64, error) {
	if est, err := baselineResident(ds, cfg.P, cfg.Layers); err != nil || est > cfg.Spec.MemBytesPerGPU {
		return -1, err
	}
	return epochSeconds(ds.g, cfg)
}

// fig12Column is one line of Fig 12: a trainer's per-GPU footprint at full
// scale as a function of depth (Reddit, hidden 512).
type fig12Column struct {
	key, title string
	bytes      func(layers int) (int64, error)
}

func fig12Columns(ds *Dataset) []fig12Column {
	mg := func(p int) func(int) (int64, error) {
		return func(layers int) (int64, error) {
			cfg := core.Config{Spec: DGXV100(), P: p, MemScale: ds.scale, Hidden: 512, Layers: layers}
			return core.EstimateMemoryBytesPerDevice(ds.g, cfg)
		}
	}
	return []fig12Column{
		{"dgl1", "DGL/1GPU", func(layers int) (int64, error) { return baselineResident(ds, 1, layers) }},
		{"mg1", "MG-GCN/1GPU", mg(1)},
		{"cagnet8", "CAGNET/8GPU", func(layers int) (int64, error) { return baselineResident(ds, 8, layers) }},
		{"mg8", "MG-GCN/8GPU", mg(8)},
	}
}

// fig12BudgetsGiB are the per-GPU budgets Fig 12 reads the depth at.
var fig12BudgetsGiB = []int64{2, 4, 8, 16, 24, 30}

// runFig12 regenerates the memory-vs-layers comparison: the deepest model
// fitting each per-GPU budget, Reddit with hidden 512.
func runFig12() (*ExperimentResult, error) {
	ds, err := LoadDataset("reddit", true)
	if err != nil {
		return nil, err
	}
	cols := fig12Columns(ds)
	var titles []string
	for _, c := range cols {
		titles = append(titles, c.title)
	}
	tab := report.NewTable("Max layers within per-GPU budget (Reddit, hidden 512)", titles...)
	vals := map[string]float64{}
	for _, gib := range fig12BudgetsGiB {
		var cells []string
		for _, c := range cols {
			layers, err := deepestFit(gib<<30, c.bytes)
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmt.Sprint(layers))
			vals[fmt.Sprintf("%d/%s", gib, c.key)] = float64(layers)
		}
		tab.AddRow(fmt.Sprintf("%d GiB", gib), cells...)
	}
	return &ExperimentResult{ID: "fig12", Title: "Fig 12", Text: tab.String(), Values: vals}, nil
}

// runFig13 regenerates the DGX-A100 epoch-runtime comparison (no CAGNET:
// the paper could not run it under CUDA 11).
func runFig13() (*ExperimentResult, error) {
	tab, vals, err := comparisonTable(DGXA100(), false)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{ID: "fig13", Title: "Fig 13", Text: tab.String(), Values: vals}, nil
}

// runFig14 regenerates the DGX-A100 speedup-vs-DGL figure.
func runFig14() (*ExperimentResult, error) {
	_, vals, err := comparisonTable(DGXA100(), false)
	if err != nil {
		return nil, err
	}
	tab, out := speedupVsDGL(vals, false)
	return &ExperimentResult{ID: "fig14", Title: "Fig 14", Text: tab.String(), Values: out}, nil
}

// table23Models maps each Table 2/3 dataset to its §6 model.
var table23Models = map[string]struct{ hidden, layers int }{
	"reddit":   {16, 2},
	"papers":   {208, 3},
	"products": {256, 3},
	"proteins": {256, 3},
}

// runTable2 regenerates the DistGNN epoch times of Table 2 from the CPU
// cost model.
func runTable2() (*ExperimentResult, error) {
	sockets := []int{1, 16, 64, 128}
	cols := make([]string, 0, len(sockets))
	for _, s := range sockets {
		cols = append(cols, fmt.Sprintf("%d skt", s))
	}
	tab := report.NewTable("DistGNN epoch times (s), regenerated cost model", cols...)
	vals := map[string]float64{}
	for _, name := range []string{"reddit", "papers", "products", "proteins"} {
		ds, err := LoadDataset(name, true)
		if err != nil {
			return nil, err
		}
		m := table23Models[name]
		hidden := m.hidden
		if name == "papers" {
			hidden = 256 // DistGNN ran Papers with hidden 256 (model C)
		}
		dg := baseline.NewDistGNN(hidden, m.layers)
		cells := []string{}
		for _, s := range sockets {
			sec := dg.EpochSeconds(ds.g, ds.scale, s)
			vals[fmt.Sprintf("%s/%d", name, s)] = sec
			cells = append(cells, report.Seconds(sec))
		}
		tab.AddRow(name, cells...)
	}
	return &ExperimentResult{ID: "table2", Title: "Table 2", Text: tab.String(), Values: vals}, nil
}

// runTable3 regenerates MG-GCN's epoch times on DGX-A100 with the §6
// models (Table 3), including the out-of-memory dashes.
func runTable3() (*ExperimentResult, error) {
	cols := []string{"1 GPU", "2 GPU", "4 GPU", "8 GPU"}
	tab := report.NewTable("MG-GCN epoch times (s) on DGX-A100", cols...)
	vals := map[string]float64{}
	for _, name := range []string{"reddit", "papers", "products", "proteins"} {
		m := table23Models[name]
		cells := []string{}
		for _, p := range gpuCounts {
			sec, err := mgEpochSeconds(DGXA100(), name, p, m.hidden, m.layers, OrderingRandom, true)
			if err != nil {
				return nil, err
			}
			vals[fmt.Sprintf("%s/%d", name, p)] = sec
			cells = append(cells, report.Seconds(sec))
		}
		tab.AddRow(name, cells...)
	}
	return &ExperimentResult{ID: "table3", Title: "Table 3", Text: tab.String(), Values: vals}, nil
}

// runSec51 regenerates the §5.1 closed-form 1D vs 1.5D analysis.
func runSec51() (*ExperimentResult, error) {
	n, d := int64(1_000_000), int64(512)
	var b strings.Builder
	vals := map[string]float64{}
	for _, spec := range []MachineSpec{DGXV100(), DGXA100()} {
		t1 := baseline.CommTime1D(spec, n, d)
		t15 := baseline.CommTime15D(spec, n, d)
		winner := "1D"
		if t15 < t1 {
			winner = "1.5D (but needs 2x memory)"
		}
		fmt.Fprintf(&b, "%-9s 1D=%.4fs  1.5D=%.4fs  ratio(1.5D/1D)=%.3f  -> %s\n",
			spec.Name, t1, t15, t15/t1, winner)
		vals[spec.Name+"/ratio"] = t15 / t1
	}
	b.WriteString("MG-GCN implements 1D: memory-bound training cannot afford 1.5D's 2x replication.\n")
	return &ExperimentResult{ID: "sec51", Title: "Sec 5.1", Text: b.String(), Values: vals}, nil
}

// runAccuracy reproduces the paper's correctness check: the multi-GPU
// loss/accuracy curve matches a single-device reference on a Reddit-like
// (small) real dataset.
func runAccuracy() (*ExperimentResult, error) {
	// High feature noise makes single vertices near-uninformative, so the
	// GCN's neighborhood aggregation is what recovers the labels (§2).
	cfg := gen.DefaultBTER(1200, 32, 42)
	cfg.FeatureNoise = 8
	cfg.CommunityFrac = 0.7
	g := gen.Generate("reddit-mini", cfg, 32, 8, false)
	ds := &Dataset{g: g, scale: 1, spec: gen.DatasetSpec{Name: "reddit-mini", Scale: 1}}
	const epochs = 40
	run := func(p int) ([]float64, float64, float64, error) {
		o := DefaultOptions(DGXA100(), p)
		o.Hidden, o.Layers, o.LR = 32, 2, 0.01
		o.SkipFirstBackwardSpMM = false
		tr, err := NewTrainer(ds, o)
		if err != nil {
			return nil, 0, 0, err
		}
		stats, err := tr.Train(epochs)
		if err != nil {
			return nil, 0, 0, err
		}
		losses := make([]float64, len(stats))
		for i, s := range stats {
			losses[i] = s.Loss
		}
		last := stats[len(stats)-1]
		return losses, last.TrainAcc, last.TestAcc, nil
	}
	ref, refAcc, refTest, err := run(1)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	vals := map[string]float64{"1/acc": refAcc, "1/test_acc": refTest}
	fmt.Fprintf(&b, "single-device final train/test accuracy: %.4f / %.4f\n", refAcc, refTest)
	for _, p := range []int{2, 4, 8} {
		losses, acc, testAcc, err := run(p)
		if err != nil {
			return nil, err
		}
		var maxDiff float64
		for i := range ref {
			if d := math.Abs(losses[i] - ref[i]); d > maxDiff {
				maxDiff = d
			}
		}
		vals[fmt.Sprintf("%d/acc", p)] = acc
		vals[fmt.Sprintf("%d/test_acc", p)] = testAcc
		vals[fmt.Sprintf("%d/max_loss_diff", p)] = maxDiff
		fmt.Fprintf(&b, "%d GPUs: final train/test acc %.4f/%.4f, max |loss - reference| over %d epochs = %.2e\n",
			p, acc, testAcc, epochs, maxDiff)
	}
	// The GNN must beat a graph-blind MLP on held-out vertices — the
	// motivation of §2 (the MLP can memorize the training set but cannot
	// exploit the relations).
	mlpAcc := mlpBaselineAccuracy(ds, epochs)
	vals["mlp/test_acc"] = mlpAcc
	fmt.Fprintf(&b, "graph-blind MLP baseline test accuracy: %.4f\n", mlpAcc)
	return &ExperimentResult{ID: "accuracy", Title: "Accuracy parity", Text: b.String(), Values: vals}, nil
}

// mlpBaselineAccuracy trains a 2-layer MLP (the GCN without the adjacency)
// on the dataset and returns its final held-out (test) accuracy.
func mlpBaselineAccuracy(ds *Dataset, epochs int) float64 {
	g := ds.g
	// A phantom dataset has no feature values to train on; without this
	// guard the nil-safe kernels below would silently no-op and report a
	// bogus 0 accuracy as if the MLP had been trained.
	if g.IsPhantom() {
		return 0
	}
	dims := nn.LayerDims(g.FeatDim, 32, 2, g.Classes)
	weights := nn.InitWeights(dims, 1)
	opt := nn.NewAdam(0.01, weights)
	var acc float64
	for e := 0; e < epochs; e++ {
		// Forward without aggregation.
		h := g.Features
		var pre []*tensor.Dense
		for l := range weights {
			out := tensor.NewDense(h.Rows, weights[l].Cols)
			tensor.Gemm(1, h, weights[l], 0, out)
			pre = append(pre, out)
			if l < len(weights)-1 {
				tensor.ReLU(out, out)
			}
			h = out
		}
		logits := h
		acc = nn.Accuracy(logits, g.Labels, g.TestMask)
		grad := tensor.NewDense(logits.Rows, logits.Cols)
		nn.SoftmaxCrossEntropy(logits, g.Labels, g.TrainMask, grad)
		// Backward.
		grads := make([]*tensor.Dense, len(weights))
		gcur := grad
		for l := len(weights) - 1; l >= 0; l-- {
			input := g.Features
			if l > 0 {
				input = pre[l-1]
			}
			wg := tensor.NewDense(weights[l].Rows, weights[l].Cols)
			tensor.GemmTA(1, input, gcur, 0, wg)
			grads[l] = wg
			if l > 0 {
				hg := tensor.NewDense(gcur.Rows, weights[l].Rows)
				tensor.GemmTB(1, gcur, weights[l], 0, hg)
				tensor.ReLUBackward(hg, hg, pre[l-1])
				gcur = hg
			}
		}
		opt.Step(weights, grads)
	}
	return acc
}

// runStrategies is an extension experiment executing the §5.1 analysis:
// the three partitioning strategies run end-to-end on both machines
// (Products, 8 GPUs) and report epoch time, communication time, and
// per-device memory — 1D-row wins on DGX-1, 1.5D's comm advantage on the
// NVSwitch machine comes at 2x feature memory.
func runStrategies() (*ExperimentResult, error) {
	ds, err := LoadDataset("products", true)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable("Partitioning strategies (Products, 8 GPUs)",
		"epoch(s)", "comm busy(s)", "peak mem/GPU (GiB, full scale)")
	vals := map[string]float64{}
	for _, machine := range []MachineSpec{DGXV100(), DGXA100()} {
		for _, strategy := range core.Strategies() {
			o := DefaultOptions(machine, 8)
			o.Strategy = strategy
			tr, err := NewTrainer(ds, o)
			if err != nil {
				return nil, err
			}
			stats, err := tr.RunEpoch()
			if err != nil {
				return nil, err
			}
			memGiB := float64(tr.PeakMemoryBytes()) * float64(ds.Scale()) / float64(1<<30)
			row := fmt.Sprintf("%s %s", machine.Name, strategy)
			tab.AddRow(row,
				report.Seconds(stats.EpochSeconds),
				report.Seconds(stats.KindBusy[sim.KindComm]),
				fmt.Sprintf("%.2f", memGiB))
			vals[row+"/epoch"] = stats.EpochSeconds
			vals[row+"/comm"] = stats.KindBusy[sim.KindComm]
			vals[row+"/mem"] = memGiB
		}
	}
	return &ExperimentResult{ID: "strategies", Title: "Strategy ablation", Text: tab.String(), Values: vals}, nil
}

// runMultiNode is an extension experiment for the paper's §7 future work:
// scaling Reddit past one machine. Collectives crossing the node boundary
// drop from NVLink to NIC bandwidth and the speedup collapses — the wall
// CAGNET hit and the reason MG-GCN targets a single node.
func runMultiNode() (*ExperimentResult, error) {
	ds, err := LoadDataset("reddit", true)
	if err != nil {
		return nil, err
	}
	cluster := MultiNode(DGXV100(), 4, 12.5e9)
	tab := report.NewTable("Reddit on a 4-node DGX-V100 cluster (HDR interconnect)",
		"epoch(s)", "speedup vs 1 GPU")
	vals := map[string]float64{}
	var base float64
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		o := DefaultOptions(cluster, p)
		tr, err := NewTrainer(ds, o)
		if err != nil {
			return nil, err
		}
		stats, err := tr.RunEpoch()
		if err != nil {
			return nil, err
		}
		sec := stats.EpochSeconds
		if p == 1 {
			base = sec
		}
		tab.AddRow(fmt.Sprintf("%2d GPUs", p), report.Seconds(sec), report.Speedup(base/sec))
		vals[fmt.Sprintf("%d/epoch", p)] = sec
		vals[fmt.Sprintf("%d/speedup", p)] = base / sec
	}
	return &ExperimentResult{ID: "multinode", Title: "Multi-node scaling wall", Text: tab.String(), Values: vals}, nil
}

// runOrdering is the §5.2 design-choice ablation: epoch time under five
// vertex orderings (Products, 8 GPUs, DGX-V100). Random permutation — the
// paper's pick — and deterministic block-cyclic dealing both fix the
// imbalance; degree-sorted is the adversarial case.
func runOrdering() (*ExperimentResult, error) {
	ds, err := LoadDataset("products", true)
	if err != nil {
		return nil, err
	}
	orderings := []Ordering{
		OrderingNatural, OrderingRandom, OrderingDegreeSorted, OrderingBFS, OrderingBlockCyclic,
	}
	tab := report.NewTable("Vertex ordering ablation (Products, 8 GPUs, DGX-V100)", "epoch(s)", "vs natural")
	vals := map[string]float64{}
	var natural float64
	run := func(name string, ord Ordering, balanced bool) error {
		o := DefaultOptions(DGXV100(), 8)
		o.Ordering = ord
		o.BalancedPartition = balanced
		o.Overlap = false // isolate the load-balance effect
		tr, err := NewTrainer(ds, o)
		if err != nil {
			return err
		}
		stats, err := tr.RunEpoch()
		if err != nil {
			return err
		}
		sec := stats.EpochSeconds
		if natural == 0 {
			natural = sec
		}
		tab.AddRow(name, report.Seconds(sec), report.Speedup(natural/sec))
		vals[name] = sec
		return nil
	}
	for _, ord := range orderings {
		if err := run(ord.String(), ord, false); err != nil {
			return nil, err
		}
	}
	// The non-permuting alternative: keep the natural order, move the cuts.
	if err := run("natural+balanced-cuts", OrderingNatural, true); err != nil {
		return nil, err
	}
	return &ExperimentResult{ID: "ordering", Title: "Ordering ablation", Text: tab.String(), Values: vals}, nil
}

// runExplosion quantifies §1's neighborhood-explosion motivation: the
// fraction of each graph a 512-vertex mini-batch reaches within 1-3 hops,
// and how many edges a sampled epoch (fanouts 25, 10) touches relative to
// one full-batch pass.
func runExplosion() (*ExperimentResult, error) {
	tab := report.NewTable("Neighborhood explosion (512-seed batch; fanouts 25,10)",
		"1-hop reach", "2-hop reach", "3-hop reach", "sampled/full edges per epoch")
	vals := map[string]float64{}
	for _, name := range []string{"arxiv", "products", "reddit"} {
		ds, err := LoadDataset(name, true)
		if err != nil {
			return nil, err
		}
		seeds := make([]int32, 0, 512)
		for v := 0; v < ds.N() && len(seeds) < 512; v += ds.N()/512 + 1 {
			seeds = append(seeds, int32(v))
		}
		counts := sample.KHopReach(ds.g.Adj, seeds, 3)
		cells := make([]string, 0, 4)
		for h := 1; h <= 3; h++ {
			frac := float64(counts[h]) / float64(ds.N())
			vals[fmt.Sprintf("%s/%dhop", name, h)] = frac
			cells = append(cells, fmt.Sprintf("%.1f%%", frac*100))
		}
		sampled, _, _ := sampledEpoch(ds.g, 512, []int{10, 25}, 7)
		ratio := float64(sampled) / float64(ds.M())
		vals[name+"/ratio"] = ratio
		cells = append(cells, fmt.Sprintf("%.2fx", ratio))
		tab.AddRow(name, cells...)
	}

	// The accuracy half of the §1 claim, executed: train the same model
	// full-batch and with sampled mini-batches for the same epoch budget
	// on a dense graph (k=64) where small fanouts lose most of the
	// neighborhood signal.
	cfg := gen.DefaultBTER(1500, 64, 99)
	cfg.FeatureNoise = 8
	g := gen.Generate("mb-vs-full", cfg, 24, 6, false)
	dims := nn.LayerDims(g.FeatDim, 32, 2, g.Classes)
	const epochs = 25
	scfg := core.DefaultSampledConfig(sim.DGXA100(), 1, 1)
	scfg.Hidden, scfg.Layers, scfg.Fanouts, scfg.Batch, scfg.Seed = 32, 2, []int{3, 3}, 128, 5
	mb, err := core.NewSampledTrainer(g, scfg)
	if err != nil {
		return nil, err
	}
	if _, err := mb.Train(epochs); err != nil {
		return nil, err
	}
	mbAcc := nn.Accuracy(fullForward(g, mb.Weights()), g.Labels, g.TestMask)
	full := nn.NewReferenceGCN(g, dims, 5)
	fullOpt := nn.NewAdam(0.01, full.Weights)
	for e := 0; e < epochs; e++ {
		full.TrainEpoch(g, fullOpt)
	}
	logits := full.Forward(g.Features)
	fullAcc := nn.Accuracy(logits, g.Labels, g.TestMask)
	vals["full/test_acc"] = fullAcc
	vals["minibatch/test_acc"] = mbAcc
	edges, _, _ := sampledEpoch(g, 128, []int{10, 25}, 6)
	vals["minibatch/edge_ratio"] = float64(edges) / float64(g.M())
	text := tab.String() + fmt.Sprintf(
		"\nexecuted comparison on a k=64 graph (%d epochs): full-batch test acc %.3f vs fanout-(3,3) mini-batch %.3f;\n"+
			"a standard fanout-(25,10) sampled epoch touches %.2fx the edges of one full-batch pass.\n"+
			"(the work amplification reproduces; the accuracy gap the paper cites from ROC is task-dependent\n"+
			"and does not appear on this easy homophilous synthetic benchmark)\n",
		epochs, fullAcc, mbAcc, vals["minibatch/edge_ratio"])
	return &ExperimentResult{ID: "explosion", Title: "Neighborhood explosion", Text: text, Values: vals}, nil
}

// sampledEpoch walks a sampled trainer's first epoch over g's training
// vertices (all without a mask) with one Sampler — blocks are pure functions
// of (seed, epoch, batch) — counting the edges, self-loops included, and per
// cache fraction the words its extracts meter: block 0's sources the cache
// holds (hit) or not (miss), times the feature width. Fanouts run outermost
// first: {10, 25} is GraphSAGE's (25, 10).
func sampledEpoch(g *graph.Graph, batch int, fanouts []int, seed int64, fracs ...float64) (edges int64, hit, miss []int64) {
	var verts []int32
	for v := 0; v < g.N(); v++ {
		if g.TrainMask == nil || g.TrainMask[v] {
			verts = append(verts, int32(v))
		}
	}
	caches := make([]*sample.FeatureCache, len(fracs))
	for i, frac := range fracs {
		caches[i] = sample.NewFeatureCache(tensor.NewPhantom(g.N(), g.FeatDim), g.InDegrees(), frac)
	}
	hit, miss = make([]int64, len(fracs)), make([]int64, len(fracs))
	plan := sample.PlanEpoch(verts, batch, seed, 0)
	s := sample.NewSampler(g.Adj, fanouts)
	for b, batchVerts := range plan.Batches {
		blocks := s.Build(batchVerts, plan.Seeds[b])
		for _, blk := range blocks {
			edges += blk.Adj.NNZ()
		}
		for i, c := range caches {
			h, m := c.Count(blocks[0].Src)
			hit[i] += int64(h) * int64(g.FeatDim)
			miss[i] += int64(m) * int64(g.FeatDim)
		}
	}
	return edges, hit, miss
}

// fullForward runs the sampled model over the whole graph — no sampling at
// inference, the standard protocol. With every vertex in the batch and a
// fanout no degree exceeds, BuildBlocks emits the blocks' own self-looped
// mean aggregation over the full graph.
func fullForward(g *graph.Graph, weights []*tensor.Dense) *tensor.Dense {
	if g.Features.IsPhantom() {
		panic("mggcn: full forward needs real features")
	}
	all := make([]int32, g.N())
	for v := range all {
		all[v] = int32(v)
	}
	agg := sample.BuildBlocks(g.Adj, all, []int{g.N()}, 0)[0].Adj
	h := g.Features
	for l, w := range weights {
		ah := tensor.NewDense(g.N(), h.Cols)
		sparse.SpMM(agg, h, 0, ah)
		h = tensor.NewDense(g.N(), w.Cols)
		tensor.Gemm(1, ah, w, 0, h)
		if l < len(weights)-1 {
			tensor.ReLU(h, h)
		}
	}
	return h
}

// runSampled sweeps the sampled minibatch pipeline (DESIGN.md §8.5) on
// Products at 4 GPUs of a DGX-A100, batch 512, fanouts [5,10,15]: feature
// cache fraction x pipelining, one epoch per cell — simulated epoch seconds,
// the stream overlap ratio, the pipelining speedup at equal arithmetic and
// the extract stage's gather words — then the elastic pipeline's recovery
// overhead under one injected fault per row (§7.4): effective simulated
// seconds over the fault-free epoch at the starting P. Cache and pipelining
// change neither the arithmetic nor the batches, so the cells are scheduled
// on Products' structure alone, one real epoch gives their loss and one
// host-only pass over the plan their gather words. The recovery rows run on
// the structure too: the fault hooks decide on tasks, not data. Everything but the loss
// is the output of the cost model and the sampler, the same on any host.
func runSampled() (*ExperimentResult, error) {
	g, spec, err := gen.Load("products", false)
	if err != nil {
		return nil, err
	}
	config := func(frac float64, pipeline bool) core.SampledConfig {
		cfg := core.DefaultSampledConfig(sim.DGXA100(), 4, spec.Scale)
		cfg.CacheFrac, cfg.Pipeline = frac, pipeline
		return cfg
	}
	cellCfg := config(0.5, true)
	cell, err := core.NewSampledTrainer(g, cellCfg)
	if err != nil {
		return nil, err
	}
	trained, err := cell.RunEpoch()
	if err != nil {
		return nil, err
	}
	structure := *g // masks kept, so the real epoch's plan
	structure.Features, structure.Labels = nil, nil
	fracs := []float64{0, 0.25, 0.5, 0.75}
	_, hits, misses := sampledEpoch(g, cellCfg.Batch, cellCfg.Fanouts, cellCfg.Seed, fracs...)
	tab := report.NewTable("Sampled pipeline (Products, 4 GPUs of DGX-A100, batch 512, fanouts 5,10,15; one epoch per cell)",
		"epoch(s)", "overlap", "vs unpipelined", "cache hit rate", "miss words", "loss")
	vals := map[string]float64{}
	for i, frac := range fracs {
		var unpipelined float64
		for _, pipeline := range []bool{false, true} {
			tr, err := core.NewSampledTrainer(&structure, config(frac, pipeline))
			if err != nil {
				return nil, err
			}
			stats, err := tr.RunEpoch()
			if err != nil {
				return nil, err
			}
			hit, miss := hits[i], misses[i]
			hitRate := 0.0
			if hit+miss > 0 {
				hitRate = float64(hit) / float64(hit+miss)
			}
			key, speedup := fmt.Sprintf("%g/unpipelined/", frac), "-"
			if pipeline {
				key = fmt.Sprintf("%g/pipelined/", frac)
				vals[key+"speedup_vs_unpipelined"] = unpipelined / stats.EpochSeconds
				speedup = report.Speedup(unpipelined / stats.EpochSeconds)
			} else {
				unpipelined = stats.EpochSeconds
			}
			vals[key+"sim_epoch_seconds"] = stats.EpochSeconds
			vals[key+"overlap_ratio"] = stats.OverlapRatio
			vals[key+"gather_hit_words"] = float64(hit)
			vals[key+"gather_miss_words"] = float64(miss)
			vals[key+"cache_hit_rate"] = hitRate
			vals[key+"loss"] = trained.Loss
			tab.AddRow(strings.TrimSuffix("cache "+key, "/"), report.Seconds(stats.EpochSeconds),
				fmt.Sprintf("%.2f", stats.OverlapRatio), speedup, fmt.Sprintf("%.2f", hitRate),
				fmt.Sprintf("%d", miss), fmt.Sprintf("%.6f", trained.Loss))
		}
	}

	// The recovery rows run the half-cache pipelined cell's configuration, so
	// that cell is their fault-free epoch.
	faultFree := vals["0.5/pipelined/sim_epoch_seconds"]
	rec := report.NewTable("Recovery overhead (half cache, pipelined; one effective epoch, one injected fault)",
		"final P", "recoveries", "injected transients", "epoch(s)", "vs fault-free")
	for _, f := range []struct {
		name string
		plan fault.Plan
	}{
		{"crash", fault.Plan{Seed: 1, Crash: &fault.CrashSpec{
			Device: 3, OnLabel: "sample", Stream: fault.OnStream(sim.StreamSample)}}},
		{"flaky-sampler", fault.Plan{Seed: 1, TransientTask: &fault.TransientTaskSpec{
			Device: 0, OnLabel: "s1/sample", Failures: 1, Stream: fault.OnStream(sim.StreamSample)}}},
		{"transient-exhaust", fault.Plan{Seed: 1, Transient: &fault.TransientSpec{Every: 2, Failures: 100}}},
	} {
		cfg, inj := config(0.5, true), fault.New(f.plan)
		cfg.Fault = inj
		res, err := core.TrainSampledElastic(&structure, cfg, 1)
		if err != nil {
			return nil, fmt.Errorf("sampled: %s: %w", f.name, err)
		}
		var seconds float64
		for _, s := range res.Stats {
			seconds += s.EpochSeconds
		}
		vals[f.name+"/final_p"] = float64(res.FinalP)
		vals[f.name+"/recoveries"] = float64(len(res.Events))
		vals[f.name+"/recovery_overhead_ratio"] = seconds / faultFree
		// A retried flaky sampler costs no recovery; this count shows it fired.
		transients := inj.Stats().TransientFailures
		vals[f.name+"/injected_transient_failures"] = float64(transients)
		rec.AddRow(f.name, fmt.Sprintf("%d", res.FinalP), fmt.Sprintf("%d", len(res.Events)), fmt.Sprintf("%d", transients),
			report.Seconds(seconds), report.Speedup(seconds/faultFree))
	}
	return &ExperimentResult{ID: "sampled", Title: "Sampled pipeline", Text: tab.String() + "\n" + rec.String(), Values: vals}, nil
}

// runGAT is the §7 future-work extension: Graph Attention Network training
// built on the SDDMM kernel. It trains a GAT and a GCN on the same
// synthetic dataset and prices the GAT's extra attention kernels with the
// cost model, showing why the paper calls out SDDMM acceleration.
func runGAT() (*ExperimentResult, error) {
	cfg := gen.DefaultBTER(800, 16, 77)
	cfg.FeatureNoise = 6
	g := gen.Generate("gat-vs-gcn", cfg, 24, 6, false)
	const epochs = 60
	dims := nn.LayerDims(g.FeatDim, 32, 2, g.Classes)

	gcn := nn.NewReferenceGCN(g, dims, 5)
	gcnOpt := nn.NewAdam(0.01, gcn.Weights)
	var gcnLast nn.EpochResult
	for e := 0; e < epochs; e++ {
		gcnLast = gcn.TrainEpoch(g, gcnOpt)
	}
	gat := nn.NewGAT(g, dims, 5)
	gatOpt := nn.NewAdam(0.01, gat.Params())
	var gatLast nn.EpochResult
	for e := 0; e < epochs; e++ {
		gatLast = gat.TrainEpoch(g, gatOpt)
	}

	// Price one attention layer on paper-scale Reddit: the SDDMM + edge
	// softmax the GAT adds on top of the GCN's SpMM.
	reddit, err := LoadDataset("reddit", true)
	if err != nil {
		return nil, err
	}
	spec := DGXA100()
	nnz := reddit.M() * int64(reddit.Scale())
	n := int(reddit.FullN())
	spmm := spec.SpMMCost(nnz, n, n, 512)
	sddmm := spec.SDDMMCost(nnz, n, 512)
	softmax := spec.ElementwiseCost(nnz, 2)

	// Distributed GAT forward on paper-scale Products across 1-8 GPUs.
	products, err := LoadDataset("products", true)
	if err != nil {
		return nil, err
	}
	prodModel := nn.NewGAT(products.g, nn.LayerDims(products.FeatDim(), 512, 2, products.Classes()), 9)
	var distTimes []float64
	for _, p := range []int{1, 2, 4, 8} {
		cfg := core.Config{
			Spec: DGXA100(), P: p, MemScale: products.Scale(),
			Hidden: 512, Layers: 2, Ordering: core.OrderingRandom, PermSeed: 1, Overlap: true,
		}
		dist, err := core.NewGATDist(products.g, prodModel, cfg)
		if err != nil {
			return nil, err
		}
		_, stats, err := dist.Forward()
		if err != nil {
			return nil, err
		}
		distTimes = append(distTimes, stats.EpochSeconds)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "GCN  after %d epochs: loss %.4f train-acc %.4f\n", epochs, gcnLast.Loss, gcnLast.TrainAcc)
	fmt.Fprintf(&b, "GAT  after %d epochs: loss %.4f train-acc %.4f\n", epochs, gatLast.Loss, gatLast.TrainAcc)
	fmt.Fprintf(&b, "distributed GAT forward, paper-scale Products (DGX-A100): 1/2/4/8 GPUs = %.3f / %.3f / %.3f / %.3f s\n",
		distTimes[0], distTimes[1], distTimes[2], distTimes[3])
	fmt.Fprintf(&b, "attention cost on paper-scale Reddit (one layer, DGX-A100):\n")
	fmt.Fprintf(&b, "  SpMM %.1f ms  + SDDMM %.1f ms + edge-softmax %.1f ms  (attention adds %.0f%%)\n",
		spmm*1e3, sddmm*1e3, softmax*1e3, 100*(sddmm+softmax)/spmm)
	vals := map[string]float64{
		"gcn/acc": gcnLast.TrainAcc, "gat/acc": gatLast.TrainAcc,
		"cost/spmm": spmm, "cost/sddmm": sddmm, "cost/softmax": softmax,
	}
	return &ExperimentResult{ID: "gat", Title: "GAT via SDDMM", Text: b.String(), Values: vals}, nil
}

// runWhatIf is a modeling study the simulator makes cheap: how the Reddit
// epoch responds to the machine's two headline resources — NVLink count
// (communication) and HBM bandwidth (SpMM) — around the DGX-A100 design
// point. It quantifies the paper's §6.4 observation that the runtime is
// the max of compute and communication: the comm-bound small-GPU regime
// responds to links, the compute-bound regime to memory bandwidth.
func runWhatIf() (*ExperimentResult, error) {
	ds, err := LoadDataset("reddit", true)
	if err != nil {
		return nil, err
	}
	run := func(spec MachineSpec, p int) (float64, error) {
		o := DefaultOptions(spec, p)
		tr, err := NewTrainer(ds, o)
		if err != nil {
			return 0, err
		}
		stats, err := tr.RunEpoch()
		if err != nil {
			return 0, err
		}
		return stats.EpochSeconds, nil
	}
	base := DGXA100()
	tab := report.NewTable("Reddit epoch (s) vs machine resources (8 GPUs, 2x512)",
		"epoch(s)", "vs DGX-A100")
	vals := map[string]float64{}
	ref, err := run(base, 8)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name   string
		mutate func(MachineSpec) MachineSpec
	}{
		{"DGX-A100 (baseline)", func(s MachineSpec) MachineSpec { return s }},
		{"half NVLinks", func(s MachineSpec) MachineSpec { s.NVLinks /= 2; return s }},
		{"double NVLinks", func(s MachineSpec) MachineSpec { s.NVLinks *= 2; return s }},
		{"half HBM bandwidth", func(s MachineSpec) MachineSpec {
			s.MemBW /= 2
			s.ContentionComputeRate = 1 - float64(s.NVLinks)*s.LinkBW/s.MemBW
			return s
		}},
		{"double HBM bandwidth", func(s MachineSpec) MachineSpec {
			s.MemBW *= 2
			s.ContentionComputeRate = 1 - float64(s.NVLinks)*s.LinkBW/s.MemBW
			return s
		}},
		{"4x L2 cache", func(s MachineSpec) MachineSpec { s.L2Bytes *= 4; return s }},
	}
	for _, c := range cases {
		spec := c.mutate(base)
		spec.Name = c.name
		sec, err := run(spec, 8)
		if err != nil {
			return nil, err
		}
		tab.AddRow(c.name, report.Seconds(sec), report.Speedup(ref/sec))
		vals[c.name] = sec
	}
	return &ExperimentResult{ID: "whatif", Title: "Machine sensitivity", Text: tab.String(), Values: vals}, nil
}
