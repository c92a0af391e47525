package mggcn

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadDatasetAPI(t *testing.T) {
	ds, err := LoadDataset("cora", true)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "cora" || ds.N() <= 0 || ds.M() <= 0 {
		t.Fatalf("bad dataset: %+v", ds)
	}
	if !ds.IsPhantom() {
		t.Fatalf("phantom flag lost")
	}
	if ds.FullN() != int64(ds.N())*int64(ds.Scale()) {
		t.Fatalf("FullN inconsistent")
	}
	if _, err := LoadDataset("bogus", true); err == nil {
		t.Fatalf("expected error for unknown dataset")
	}
}

func TestSynthesizeDataset(t *testing.T) {
	ds := SynthesizeDataset("custom", 300, 5, 8, 3, 7, false)
	if ds.N() != 300 || ds.FeatDim() != 8 || ds.Classes() != 3 || ds.Scale() != 1 {
		t.Fatalf("synthesized dataset wrong: n=%d d=%d c=%d", ds.N(), ds.FeatDim(), ds.Classes())
	}
	if ds.IsPhantom() {
		t.Fatalf("requested real dataset")
	}
}

func TestTrainerEndToEnd(t *testing.T) {
	ds := SynthesizeDataset("e2e", 400, 10, 16, 4, 3, false)
	o := DefaultOptions(DGXA100(), 4)
	o.Hidden, o.Layers = 24, 2
	tr, err := NewTrainer(ds, o)
	if err != nil {
		t.Fatal(err)
	}
	if tr.BufferCount() != o.Layers+3 {
		t.Fatalf("buffer count %d", tr.BufferCount())
	}
	stats := mustTrain(tr, 30)
	if len(stats) != 30 {
		t.Fatalf("epochs %d", len(stats))
	}
	last := stats[len(stats)-1]
	if last.TrainAcc < 0.6 {
		t.Fatalf("accuracy %v", last.TrainAcc)
	}
	if last.EpochSeconds <= 0 {
		t.Fatalf("epoch seconds %v", last.EpochSeconds)
	}
	if tr.PeakMemoryBytes() <= 0 {
		t.Fatalf("no memory accounted")
	}
}

// TestNewTrainerValidation: options no trainer can be built for are errors,
// and the memory estimator — which builds nothing — reports the same error
// for them instead of estimating (or panicking).
func TestNewTrainerValidation(t *testing.T) {
	phantom := SynthesizeDataset("v", 100, 4, 8, 2, 5, true)
	// A materialised dataset whose training mask selects nobody: there is no
	// loss to compute, so it must not train "successfully" at Loss = 0.
	noTrain := SynthesizeDataset("v", 100, 4, 8, 2, 5, false)
	clear(noTrain.g.TrainMask)
	cases := []struct {
		name string
		ds   *Dataset
		edit func(o *Options)
	}{
		{"GPUs=0", phantom, func(o *Options) { o.GPUs = 0 }},
		{"Layers=0", phantom, func(o *Options) { o.Layers = 0 }},
		{"1.5D on odd GPUs", phantom, func(o *Options) { o.GPUs, o.Strategy = 3, Strategy15D }},
		{"unknown strategy", phantom, func(o *Options) { o.Strategy = Strategy(99) }},
		{"GPUs=16 on an 8-GPU machine", phantom, func(o *Options) { o.GPUs = 16 }},
		{"Hidden=0", phantom, func(o *Options) { o.Hidden = 0 }},
		{"Hidden=-1", phantom, func(o *Options) { o.Hidden = -1 }},
		{"unknown ordering", phantom, func(o *Options) { o.Ordering = Ordering(9) }},
		{"empty training split", noTrain, func(o *Options) {}},
		{"two nodes, no inter-node bandwidth", phantom, func(o *Options) { o.Machine, o.GPUs = MultiNode(DGXA100(), 2, 0), 16 }},
		{"a cluster of no nodes", phantom, func(o *Options) { o.Machine = MultiNode(DGXA100(), 0, 12.5e9) }},
	}
	for _, tc := range cases {
		o := DefaultOptions(DGXA100(), 4)
		tc.edit(&o)
		_, trErr := NewTrainer(tc.ds, o)
		if trErr == nil {
			t.Fatalf("%s: NewTrainer accepted it", tc.name)
		}
		_, estErr := EstimateMemoryBytesPerDevice(tc.ds, o)
		if estErr == nil || estErr.Error() != trErr.Error() {
			t.Fatalf("%s: estimator error %v, NewTrainer error %v", tc.name, estErr, trErr)
		}
	}
}

// TestLearningRateValidation: a negative, NaN or infinite learning rate would
// reach every weight in the first optimizer step, so both trainers and the
// memory estimator refuse it with the same error; 0 (train nothing) is legal.
func TestLearningRateValidation(t *testing.T) {
	ds := SynthesizeDataset("lr", 100, 4, 8, 2, 5, false)
	for _, tc := range []struct {
		lr   float64
		want bool
	}{
		{0.01, true}, {0, true}, {-0.01, false}, {math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		o := DefaultOptions(DGXA100(), 2)
		o.Hidden, o.LR = 8, tc.lr
		_, trErr := NewTrainer(ds, o)
		_, estErr := EstimateMemoryBytesPerDevice(ds, o)
		so := DefaultSampledOptions(DGXA100(), 2)
		so.Hidden, so.Layers, so.Fanouts, so.LR = 8, 2, []int{3, 4}, tc.lr
		_, sErr := NewSampledTrainer(ds, so)
		if got := trErr == nil; got != tc.want || (estErr == nil) != tc.want || (sErr == nil) != tc.want {
			t.Errorf("LR %v: NewTrainer %v, estimator %v, NewSampledTrainer %v; want accepted=%v", tc.lr, trErr, estErr, sErr, tc.want)
		}
		if !tc.want && (trErr.Error() != sErr.Error() || estErr.Error() != trErr.Error()) {
			t.Errorf("LR %v: errors differ: %q, %q, %q", tc.lr, trErr, estErr, sErr)
		}
	}
}

func TestIsOOM(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale papers load: long e2e, skipped in -short")
	}
	// A full-scale Papers run on one A100 must OOM, like the paper's Table 3.
	ds, err := LoadDataset("papers", true)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions(DGXA100(), 1)
	o.Hidden, o.Layers = 208, 3
	_, err = NewTrainer(ds, o)
	if !IsOOM(err) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if IsOOM(nil) {
		t.Fatalf("nil is not OOM")
	}
	// Eight GPUs must fit (the paper's 2.89 s cell).
	o.GPUs = 8
	if _, err := NewTrainer(ds, o); err != nil {
		t.Fatalf("papers on 8 GPUs should fit: %v", err)
	}
}

func TestEstimateMemoryMatchesTrainer(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom reddit build: simulator-only, skipped in -short")
	}
	ds, err := LoadDataset("reddit", true)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions(DGXV100(), 4)
	tr, err := NewTrainer(ds, o)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMemoryBytesPerDevice(ds, o)
	if err != nil {
		t.Fatal(err)
	}
	actualFull := tr.PeakMemoryBytes() * int64(ds.Scale())
	ratio := float64(est) / float64(actualFull)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("estimate %d vs actual(full-scale) %d (ratio %.2f)", est, actualFull, ratio)
	}
}

// TestEstimateMemoryFollowsStrategy: the estimate is built from the same
// configuration NewTrainer gets, so it tracks the strategy — 1.5D stores
// every block's rows twice and must not be estimated as 1D, but only its
// replica group's stages of the adjacency, so at degree 200, where the
// adjacency outweighs the slabs, it must not be charged every tile either.
func TestEstimateMemoryFollowsStrategy(t *testing.T) {
	for _, degree := range []float64{10, 200} {
		ds := SynthesizeDataset("est", 2000, degree, 32, 8, 5, true)
		// P=2 is 1.5D's single block: device 0 stores the whole matrix.
		for _, p := range []int{2, 4} {
			for _, s := range []Strategy{Strategy1DRow, Strategy1DCol, Strategy15D} {
				o := DefaultOptions(DGXA100(), p)
				o.Hidden = 64
				o.Strategy = s
				tr, err := NewTrainer(ds, o)
				if err != nil {
					t.Fatalf("degree %v, P=%d, %v: %v", degree, p, s, err)
				}
				est, err := EstimateMemoryBytesPerDevice(ds, o)
				if err != nil {
					t.Fatalf("degree %v, P=%d, %v: %v", degree, p, s, err)
				}
				if ratio := float64(est) / float64(tr.PeakMemoryBytes()); ratio < 0.9 || ratio > 1.1 {
					t.Errorf("degree %v, P=%d, %v: estimate %d vs peak %d (ratio %.2f)", degree, p, s, est, tr.PeakMemoryBytes(), ratio)
				}
			}
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("nope"); err == nil {
		t.Fatalf("expected error")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "table2", "table3", "sec51", "accuracy",
		"strategies", "ordering", "explosion", "sampled", "gat", "multinode", "whatif"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("experiment %d is %q, want %q", i, got[i].ID, id)
		}
		if got[i].Title == "" || got[i].Run == nil {
			t.Fatalf("experiment %q incomplete", id)
		}
	}
}

func TestTable1Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full Table-1 catalog: long e2e, skipped in -short")
	}
	res := experiment(t, "table1")
	for _, name := range []string{"cora", "arxiv", "products", "proteins", "reddit", "papers"} {
		if !strings.Contains(res.Text, name) {
			t.Fatalf("table1 missing %s:\n%s", name, res.Text)
		}
		k, kp := res.Values[name+"/k"], res.Values[name+"/k_paper"]
		if k < kp*0.5 || k > kp*1.8 {
			t.Fatalf("%s generated degree %v, paper %v", name, k, kp)
		}
	}
}

func TestSec51Experiment(t *testing.T) {
	res := experiment(t, "sec51")
	if math.Abs(res.Values["DGX-V100/ratio"]-1.5) > 0.01 {
		t.Fatalf("V100 ratio %v", res.Values["DGX-V100/ratio"])
	}
	if math.Abs(res.Values["DGX-A100/ratio"]-0.75) > 0.01 {
		t.Fatalf("A100 ratio %v", res.Values["DGX-A100/ratio"])
	}
}

func TestFig6Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom products timelines: simulator-only, skipped in -short")
	}
	res := experiment(t, "fig6")
	// Permutation must reduce both the epoch time and the compute-busy
	// imbalance across GPUs (the paper's 50 ms -> 38 ms contrast).
	if res.Values["permuted/epoch"] >= res.Values["original/epoch"] {
		t.Fatalf("permuted epoch %v not faster than original %v",
			res.Values["permuted/epoch"], res.Values["original/epoch"])
	}
	if !strings.Contains(res.Text, "GPU 4 comp") {
		t.Fatalf("timeline missing GPU rows:\n%s", res.Text)
	}
}

func TestFig8Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom products timelines: simulator-only, skipped in -short")
	}
	res := experiment(t, "fig8")
	if res.Values["overlap/epoch"] >= res.Values["no-overlap/epoch"] {
		t.Fatalf("overlap %v not faster than no-overlap %v",
			res.Values["overlap/epoch"], res.Values["no-overlap/epoch"])
	}
}

func TestFig12Experiment(t *testing.T) {
	res := experiment(t, "fig12")
	// Paper's 30 GiB readings: DGL ~20, MG-GCN ~50 (1 GPU); CAGNET ~150,
	// MG-GCN ~450 (8 GPUs). Accept a generous band, but the ordering and
	// rough magnitudes must hold.
	checks := []struct {
		key    string
		lo, hi float64
	}{
		{"30/dgl1", 14, 28},
		{"30/mg1", 40, 75},
		{"30/cagnet8", 110, 230},
		{"30/mg8", 350, 650},
	}
	for _, c := range checks {
		v := res.Values[c.key]
		if v < c.lo || v > c.hi {
			t.Fatalf("%s = %v outside [%v, %v]\n%s", c.key, v, c.lo, c.hi, res.Text)
		}
	}
	if res.Values["30/mg1"] <= res.Values["30/dgl1"] || res.Values["30/mg8"] <= res.Values["30/cagnet8"] {
		t.Fatalf("MG-GCN must fit more layers than the baselines")
	}
	if res.Values["30/cagnet8"] <= res.Values["30/dgl1"] {
		t.Fatalf("8-GPU CAGNET must fit more layers than 1-GPU DGL")
	}
}

func TestAccuracyExperiment(t *testing.T) {
	res := experiment(t, "accuracy")
	for _, p := range []int{2, 4, 8} {
		key := map[int]string{2: "2/max_loss_diff", 4: "4/max_loss_diff", 8: "8/max_loss_diff"}[p]
		if res.Values[key] > 0.05 {
			t.Fatalf("P=%d loss curve diverges from single-device by %v", p, res.Values[key])
		}
	}
	if res.Values["1/acc"] < 0.7 {
		t.Fatalf("reference accuracy %v too low", res.Values["1/acc"])
	}
	// The GCN must beat the graph-blind MLP on held-out vertices (§2's
	// motivation).
	if res.Values["1/test_acc"] <= res.Values["mlp/test_acc"] {
		t.Fatalf("GCN (%v) did not beat MLP (%v) on test vertices",
			res.Values["1/test_acc"], res.Values["mlp/test_acc"])
	}
}

func TestDatasetBinaryRoundTripPublicAPI(t *testing.T) {
	ds := SynthesizeDataset("io-rt", 200, 6, 8, 3, 11, false)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDataset(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() || back.M() != ds.M() || back.Name() != "io-rt" {
		t.Fatalf("round trip lost data: n=%d m=%d", back.N(), back.M())
	}
	// The reloaded dataset must be trainable with identical results.
	o := DefaultOptions(DGXA100(), 2)
	o.Hidden = 16
	tr1, err := NewTrainer(ds, o)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := NewTrainer(back, o)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := mustEpoch(tr1).Loss, mustEpoch(tr2).Loss
	if l1 != l2 {
		t.Fatalf("reloaded dataset trains differently: %v vs %v", l1, l2)
	}
}

func TestCheckpointPublicAPI(t *testing.T) {
	ds := SynthesizeDataset("ckpt", 200, 6, 8, 3, 12, false)
	o := DefaultOptions(DGXA100(), 2)
	o.Hidden = 16
	tr, err := NewTrainer(ds, o)
	if err != nil {
		t.Fatal(err)
	}
	mustTrain(tr, 3)
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := NewTrainer(ds, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if a, b := mustEpoch(tr).Loss, mustEpoch(tr2).Loss; a != b {
		t.Fatalf("restored trainer diverges: %v vs %v", a, b)
	}

	// The sampled trainer's checkpoint goes through SaveCheckpointAtomic to
	// a file, and a fresh trainer read from it runs the same next epoch.
	so := DefaultSampledOptions(DGXA100(), 2)
	so.Hidden, so.Layers, so.Batch, so.Fanouts = 8, 2, 16, []int{3, 4}
	sampled := func() *SampledTrainer {
		st, err := NewSampledTrainer(ds, so)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st, st2 := sampled(), sampled()
	if _, err := st.Train(2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sampled.ckpt")
	if err := SaveCheckpointAtomic(path, st.SaveCheckpoint); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := st2.LoadCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	a, err := st.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	b, err := st2.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Loss) != math.Float64bits(b.Loss) {
		t.Fatalf("restored sampled trainer diverges: %v vs %v", a.Loss, b.Loss)
	}
}

func TestTimelinePublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom products timeline: simulator-only, skipped in -short")
	}
	ds, err := LoadDataset("products", true)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions(DGXV100(), 4)
	chart, epoch, err := Timeline(ds, o, "fwd0/spmm", 60)
	if err != nil {
		t.Fatal(err)
	}
	if epoch <= 0 {
		t.Fatalf("epoch %v", epoch)
	}
	if !strings.Contains(chart, "GPU 4 comp") || !strings.Contains(chart, "~") {
		t.Fatalf("chart missing rows:\n%s", chart)
	}
}

func TestMultiNodePublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom reddit epochs: simulator-only, skipped in -short")
	}
	m := MultiNode(DGXV100(), 2, 12.5e9)
	if m.NumGPUs != 16 {
		t.Fatalf("NumGPUs=%d", m.NumGPUs)
	}
	ds, err := LoadDataset("reddit", true)
	if err != nil {
		t.Fatal(err)
	}
	tr8, err := NewTrainer(ds, DefaultOptions(m, 8))
	if err != nil {
		t.Fatal(err)
	}
	tr16, err := NewTrainer(ds, DefaultOptions(m, 16))
	if err != nil {
		t.Fatal(err)
	}
	e8, e16 := mustEpoch(tr8).EpochSeconds, mustEpoch(tr16).EpochSeconds
	if e16 < e8 {
		t.Fatalf("crossing the node boundary should not speed Reddit up: %g -> %g", e8, e16)
	}
}

func TestStrategiesPublicAPI(t *testing.T) {
	ds := SynthesizeDataset("strat-pub", 300, 8, 12, 3, 21, false)
	base := -1.0
	for _, s := range []Strategy{Strategy1DRow, Strategy1DCol, Strategy15D} {
		o := DefaultOptions(DGXA100(), 4)
		o.Hidden = 16
		o.Strategy = s
		tr, err := NewTrainer(ds, o)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		loss := mustEpoch(tr).Loss
		if base < 0 {
			base = loss
		} else if math.Abs(loss-base) > 1e-3 {
			t.Fatalf("%v first-epoch loss %v != %v", s, loss, base)
		}
	}
}

// TestAllExperimentsShapes runs the remaining experiment runners end to end
// and pins the shape claims EXPERIMENTS.md makes for each — the regression
// harness for the full reproduction. (table1/fig6/fig8/fig12/sec51/accuracy
// have their own dedicated tests above.)
func TestAllExperimentsShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment: long e2e, skipped in -short")
	}
	get := func(id string) *ExperimentResult {
		t.Helper()
		res := experiment(t, id)
		if res.Text == "" {
			t.Fatalf("%s: empty report", id)
		}
		return res
	}

	fig5 := get("fig5")
	if fig5.Values["reddit/1/SpMM"] < 50 {
		t.Errorf("fig5: reddit SpMM share %.1f%%, want dominance", fig5.Values["reddit/1/SpMM"])
	}
	if fig5.Values["proteins/1/oom"] != 1 || fig5.Values["proteins/2/oom"] != 1 {
		t.Errorf("fig5: proteins must OOM at 1-2 GPUs")
	}

	fig7 := get("fig7")
	if fig7.Values["products/8/perm"] < 1.2 {
		t.Errorf("fig7: products 8-GPU permutation speedup %.2f too small", fig7.Values["products/8/perm"])
	}
	if fig7.Values["products/8/perm+ovlp"] <= fig7.Values["products/8/perm"] {
		t.Errorf("fig7: overlap must add on top of permutation")
	}

	fig9 := get("fig9")
	if fig9.Values["128x/4"] <= 4 {
		t.Errorf("fig9: 4-GPU speedup at 128x is %.2f, want super-linear", fig9.Values["128x/4"])
	}
	if fig9.Values["1x/8"] >= fig9.Values["128x/8"] {
		t.Errorf("fig9: speedup must grow with density")
	}

	fig11 := get("fig11")
	for _, name := range []string{"cora", "arxiv", "products", "reddit"} {
		if s := fig11.Values[name+"/mggcn/1"]; s < 1.3 || s > 4.5 {
			t.Errorf("fig11: %s single-GPU speedup vs DGL %.2f outside the paper band", name, s)
		}
	}
	if fig11.Values["products/mggcn/8"] <= fig11.Values["products/cagnet/8"] {
		t.Errorf("fig11: MG-GCN must beat CAGNET at 8 GPUs")
	}

	fig14 := get("fig14")
	if s := fig14.Values["reddit/mggcn/8"]; s < 4 {
		t.Errorf("fig14: reddit 8-GPU speedup vs DGL %.2f too small", s)
	}

	table2 := get("table2")
	if v := table2.Values["reddit/1"]; v < 0.2 || v > 1.8 {
		t.Errorf("table2: reddit 1-socket %.2fs outside the paper band (0.60s)", v)
	}

	table3 := get("table3")
	if table3.Values["papers/1"] != -1 || table3.Values["papers/8"] <= 0 {
		t.Errorf("table3: papers must OOM below 8 GPUs and fit at 8")
	}
	if table3.Values["products/8"] >= table3.Values["products/1"] {
		t.Errorf("table3: products must scale")
	}

	strat := get("strategies")
	if strat.Values["DGX-A100 1.5D/mem"] < strat.Values["DGX-A100 1D-row/mem"]*1.5 {
		t.Errorf("strategies: 1.5D must use ~2x memory")
	}
	if strat.Values["DGX-A100 1.5D/comm"] >= strat.Values["DGX-A100 1D-row/comm"] {
		t.Errorf("strategies: 1.5D comm must win on NVSwitch")
	}

	ord := get("ordering")
	if ord.Values["random"] >= ord.Values["natural"] {
		t.Errorf("ordering: random permutation must beat natural")
	}

	expl := get("explosion")
	if expl.Values["reddit/1hop"] < 0.9 {
		t.Errorf("explosion: reddit 1-hop reach %.2f, want near total", expl.Values["reddit/1hop"])
	}
	if expl.Values["minibatch/edge_ratio"] <= 1 {
		t.Errorf("explosion: sampled epoch must touch more edges than full batch")
	}

	// DESIGN §8.5's claims (TestExperimentsGolden holds every number).
	smp := get("sampled")
	for _, frac := range []string{"0", "0.25", "0.5"} {
		if sp := smp.Values[frac+"/pipelined/speedup_vs_unpipelined"]; sp < 1.3 {
			t.Errorf("sampled: pipelining buys %.2fx at cache fraction %s, want >= 1.3x up to a half cache", sp, frac)
		}
	}
	if none, half := smp.Values["0/pipelined/gather_miss_words"], smp.Values["0.5/pipelined/gather_miss_words"]; none < 2*half {
		t.Errorf("sampled: a half cache cuts miss words %v -> %v, want >= 2x", none, half)
	}
	if r, p := smp.Values["flaky-sampler/recovery_overhead_ratio"], smp.Values["flaky-sampler/final_p"]; r != 1 || p != 4 {
		t.Errorf("sampled: flaky-sampler recovers at ratio %v and P = %v, want 1.0 and the full 4", r, p)
	}
	if n, rec := smp.Values["flaky-sampler/injected_transient_failures"], smp.Values["flaky-sampler/recoveries"]; n != 1 || rec != 0 {
		t.Errorf("sampled: flaky-sampler injected %v failures and cost %v recoveries, want 1 retried in place and none", n, rec)
	}
	for k, v := range smp.Values {
		if strings.HasSuffix(k, "/loss") && v != smp.Values["0/unpipelined/loss"] {
			t.Errorf("sampled: %s = %v differs from %v: cache and pipelining must not change the arithmetic",
				k, v, smp.Values["0/unpipelined/loss"])
		}
	}

	gat := get("gat")
	if gat.Values["cost/sddmm"] <= 0 {
		t.Errorf("gat: missing SDDMM cost")
	}

	mn := get("multinode")
	if mn.Values["16/speedup"] >= mn.Values["8/speedup"] {
		t.Errorf("multinode: crossing the node boundary must hurt: 8=%v 16=%v",
			mn.Values["8/speedup"], mn.Values["16/speedup"])
	}

	wi := get("whatif")
	if wi.Values["double HBM bandwidth"] >= wi.Values["DGX-A100 (baseline)"] {
		t.Errorf("whatif: doubling HBM bandwidth must speed Reddit up")
	}
}

// TestSampledDegenerateConfigs drives the configurations at the edges of the
// sampled pipeline through the public API: each must either be refused by
// NewSampledTrainer with an error or train one epoch to a finite loss. None
// may panic.
func TestSampledDegenerateConfigs(t *testing.T) {
	ds := SynthesizeDataset("degenerate", 200, 6, 10, 4, 3, false) // 120 train vertices
	cases := map[string]func(o *SampledOptions){
		"batch > train set":     func(o *SampledOptions) { o.Batch = 100000 },
		"GPUs > batches":        func(o *SampledOptions) { o.GPUs, o.Batch = 8, 50 }, // 3 batches: one tail step, 5 zero-grad devices
		"fanout > max degree":   func(o *SampledOptions) { o.Fanouts = []int{1 << 20, 1 << 20} },
		"hidden 1":              func(o *SampledOptions) { o.Hidden = 1 },
		"one layer":             func(o *SampledOptions) { o.Layers, o.Fanouts = 1, []int{3} },
		"no cache":              func(o *SampledOptions) { o.CacheFrac = 0 },
		"everything cached":     func(o *SampledOptions) { o.CacheFrac = 1 },
		"unpipelined":           func(o *SampledOptions) { o.Pipeline = false },
		"hidden 0":              func(o *SampledOptions) { o.Hidden = 0 },
		"batch 0":               func(o *SampledOptions) { o.Batch = 0 },
		"fanout 0":              func(o *SampledOptions) { o.Fanouts = []int{0, 2} },
		"fanouts/layers differ": func(o *SampledOptions) { o.Layers = 3 },
		"cache fraction 2":      func(o *SampledOptions) { o.CacheFrac = 2 },
		"GPUs > machine":        func(o *SampledOptions) { o.GPUs = 16 },
		"GPUs span nodes, no inter-node bandwidth": func(o *SampledOptions) { o.Machine, o.GPUs = MultiNode(DGXA100(), 2, 0), 16 },
		"a cluster of no nodes":                    func(o *SampledOptions) { o.Machine = MultiNode(DGXA100(), 0, 12.5e9) },
	}
	for name, tweak := range cases {
		t.Run(name, func(t *testing.T) {
			o := DefaultSampledOptions(DGXA100(), 2)
			o.Hidden, o.Layers, o.Batch, o.Fanouts = 8, 2, 16, []int{3, 4}
			o.TrackVal = true
			tweak(&o)
			tr, err := NewSampledTrainer(ds, o)
			if err != nil {
				return
			}
			stats, err := tr.RunEpoch()
			if err != nil {
				t.Fatalf("RunEpoch: %v", err)
			}
			if math.IsNaN(stats.Loss) || math.IsInf(stats.Loss, 0) || stats.Loss <= 0 {
				t.Fatalf("loss %v after one epoch", stats.Loss)
			}
		})
	}
	// A structure-only dataset trains an epoch scheduled exactly as its real
	// twin's is (the twin drops its split: a generated phantom has none).
	t.Run("phantom dataset", func(t *testing.T) {
		o := DefaultSampledOptions(DGXA100(), 2)
		o.Hidden, o.Layers, o.Batch, o.Fanouts = 8, 2, 16, []int{3, 4}
		o.TrackVal = true
		twin := SynthesizeDataset("degenerate", 200, 6, 10, 4, 3, false)
		twin.g.TrainMask, twin.g.ValMask, twin.g.TestMask = nil, nil, nil
		var seconds []float64
		for _, ds := range []*Dataset{SynthesizeDataset("degenerate", 200, 6, 10, 4, 3, true), twin} {
			tr, err := NewSampledTrainer(ds, o)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := tr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			seconds = append(seconds, stats.EpochSeconds)
		}
		if !(seconds[0] > 0) || seconds[0] != seconds[1] {
			t.Fatalf("phantom epoch %v s, real twin's %v s", seconds[0], seconds[1])
		}
	})
	// An empty training split is refused, in the full-batch trainer's words:
	// a run over it would return empty stats and bump the cursor forever.
	t.Run("empty training split", func(t *testing.T) {
		noTrain := SynthesizeDataset("degenerate", 200, 6, 10, 4, 3, false)
		clear(noTrain.g.TrainMask)
		o := DefaultSampledOptions(DGXA100(), 2)
		o.Hidden, o.Layers, o.Batch, o.Fanouts = 8, 2, 16, []int{3, 4}
		_, err := NewSampledTrainer(noTrain, o)
		_, fullErr := NewTrainer(noTrain, DefaultOptions(DGXA100(), 2))
		if err == nil || fullErr == nil || err.Error() != fullErr.Error() {
			t.Fatalf("NewSampledTrainer error %v, NewTrainer error %v", err, fullErr)
		}
	})
}
