package core

import (
	"errors"
	"math"
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// testGraph returns a small real (non-phantom) dataset shared by the
// correctness tests.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Generate("core-test", gen.DefaultBTER(160, 8, 99), 12, 4, false)
}

func testConfig(p int) Config {
	cfg := DefaultConfig(sim.DGXA100(), p, 1<<20) // huge memScale irrelevant: tiny data
	cfg.MemScale = 1
	cfg.Hidden = 16
	cfg.Layers = 2
	cfg.LR = 0.01
	cfg.Seed = 7
	cfg.SkipFirstBackward = false
	return cfg
}

func TestForwardMatchesReference(t *testing.T) {
	g := testGraph(t)
	ref := nn.NewReferenceGCN(g, nn.LayerDims(g.FeatDim, 16, 2, g.Classes), 7)
	want := ref.Forward(g.Features)
	for _, p := range []int{1, 2, 3, 8} {
		for _, ord := range []Ordering{OrderingNatural, OrderingRandom} {
			cfg := testConfig(p)
			cfg.Ordering = ord
			tr, err := NewTrainer(g, cfg)
			if err != nil {
				t.Fatalf("P=%d %v: %v", p, ord, err)
			}
			got := mustForward(tr)
			if d := tensor.MaxAbsDiff(got, want); d > 1e-3 {
				t.Fatalf("P=%d %v: logits diverge from reference by %g", p, ord, d)
			}
		}
	}
}

func TestForwardOrderSwitchEquivalence(t *testing.T) {
	// §4.4: the order switch must not change the result, only the cost.
	// Hidden 8 runs GeMM first in layer 0 and 20 SpMM first (featDim 12).
	g := testGraph(t)
	for _, hidden := range []int{8, 20} {
		cfg := testConfig(4)
		cfg.Hidden = hidden
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := mustEpoch(tr)
		ref := nn.NewReferenceGCN(g, nn.LayerDims(g.FeatDim, hidden, 2, g.Classes), 7)
		opt := nn.NewAdam(cfg.LR, ref.Weights)
		r := ref.TrainEpoch(g, opt)
		if math.Abs(s.Loss-r.Loss) > 1e-3 {
			t.Fatalf("hidden=%d: loss %v vs reference %v", hidden, s.Loss, r.Loss)
		}
	}
}

func TestFirstEpochGradientsMatchReference(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustEpoch(tr)

	dims := nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes)
	ref := nn.NewReferenceGCN(g, dims, cfg.Seed)
	logits := ref.Forward(g.Features)
	gl := tensor.NewDense(logits.Rows, logits.Cols)
	nn.SoftmaxCrossEntropy(logits, g.Labels, g.TrainMask, gl)
	refGrads := ref.Backward(gl)
	for l := range refGrads {
		if d := tensor.MaxAbsDiff(tr.grads[0][l], refGrads[l]); d > 1e-3 {
			t.Fatalf("layer %d gradient differs from reference by %g", l, d)
		}
	}
}

func TestAccuracyParityAcrossGPUCounts(t *testing.T) {
	// The paper's own correctness check: the multi-GPU accuracy/loss curve
	// must match the single-device baseline.
	g := testGraph(t)
	curve := func(p int, overlap bool, ord Ordering) []float64 {
		cfg := testConfig(p)
		cfg.Overlap = overlap
		cfg.Ordering = ord
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var losses []float64
		for e := 0; e < 8; e++ {
			losses = append(losses, mustEpoch(tr).Loss)
		}
		return losses
	}
	base := curve(1, false, OrderingNatural)
	for _, p := range []int{2, 4, 8} {
		got := curve(p, true, OrderingRandom)
		for e := range base {
			if math.Abs(got[e]-base[e]) > 2e-2*(1+math.Abs(base[e])) {
				t.Fatalf("P=%d epoch %d: loss %v vs single-GPU %v", p, e, got[e], base[e])
			}
		}
	}
}

func TestTrainingConvergesDistributed(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	cfg.Layers = 2
	cfg.Hidden = 24
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := mustTrain(tr, 50)
	if stats[len(stats)-1].Loss >= stats[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", stats[0].Loss, stats[len(stats)-1].Loss)
	}
	if stats[len(stats)-1].TrainAcc < 0.7 {
		t.Fatalf("final train accuracy %v too low", stats[len(stats)-1].TrainAcc)
	}
}

func TestSkipFirstBackwardStillLearns(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	cfg.SkipFirstBackward = true
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := mustTrain(tr, 50)
	last := stats[len(stats)-1]
	if last.TrainAcc < 0.7 {
		t.Fatalf("accuracy with saved SpMM %v too low", last.TrainAcc)
	}
	// And it must actually save SpMM tasks: count them vs the exact run.
	cfg2 := testConfig(4)
	cfg2.SkipFirstBackward = false
	tr2, err := NewTrainer(g, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := mustEpoch(tr), mustEpoch(tr2)
	if countKind(s1, sim.KindSpMM) >= countKind(s2, sim.KindSpMM) {
		t.Fatalf("skip did not reduce SpMM count: %d vs %d",
			countKind(s1, sim.KindSpMM), countKind(s2, sim.KindSpMM))
	}
}

func countKind(s *EpochStats, k sim.Kind) int {
	n := 0
	for _, t := range s.Tasks {
		if t.Kind == k {
			n++
		}
	}
	return n
}

func TestBufferCountIsLPlus3(t *testing.T) {
	g := testGraph(t)
	for _, layers := range []int{1, 2, 3, 5} {
		cfg := testConfig(2)
		cfg.Layers = layers
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tr.BufferCount() != layers+3 {
			t.Fatalf("layers=%d: %d buffers, want L+3=%d", layers, tr.BufferCount(), layers+3)
		}
	}
}

func TestOOMOnTinyMemory(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(1)
	cfg.MemScale = 1 << 30 // capacity ~0: everything OOMs
	_, err := NewTrainer(g, cfg)
	var oom *sim.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want OOM error, got %v", err)
	}
}

func TestEpochTimeDecreasesWithGPUs(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom scaling sweep: long e2e, skipped in -short")
	}
	// Phantom Products-scale run: simulated epoch time must shrink as GPUs
	// are added (the Fig 10/13 scaling behaviour).
	g, _, err := gen.Load("products", true)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = math.Inf(1)
	for _, p := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig(sim.DGXA100(), p, 64)
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sec := mustEpoch(tr).EpochSeconds
		if sec <= 0 {
			t.Fatalf("P=%d: non-positive epoch time", p)
		}
		if sec >= prev {
			t.Fatalf("P=%d: epoch %gs did not improve on %gs", p, sec, prev)
		}
		prev = sec
	}
}

func TestOverlapImprovesEpochTime(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom products epochs: long e2e, skipped in -short")
	}
	g, _, err := gen.Load("products", true)
	if err != nil {
		t.Fatal(err)
	}
	run := func(overlap bool) float64 {
		cfg := DefaultConfig(sim.DGXV100(), 4, 64)
		cfg.Overlap = overlap
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mustEpoch(tr).EpochSeconds
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("overlap did not help: %g vs %g", with, without)
	}
}

func TestPermuteImprovesEpochTime(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom products epochs: long e2e, skipped in -short")
	}
	g, _, err := gen.Load("products", true)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ord Ordering) float64 {
		cfg := DefaultConfig(sim.DGXV100(), 8, 64)
		cfg.Ordering = ord
		cfg.Overlap = false
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mustEpoch(tr).EpochSeconds
	}
	perm, orig := run(OrderingRandom), run(OrderingNatural)
	if perm >= orig {
		t.Fatalf("permutation did not help on 8 GPUs: %g vs %g", perm, orig)
	}
}

func TestBreakdownSpMMDominatesDenseGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("phantom reddit epochs: long e2e, skipped in -short")
	}
	// Fig 5: for high-average-degree graphs SpMM takes the majority of the
	// epoch; for tiny graphs GeMM-side work dominates.
	g, _, err := gen.Load("reddit", true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(sim.DGXV100(), 1, 32)
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pct := mustEpoch(tr).BreakdownPercent()
	if pct[sim.KindSpMM] < 50 {
		t.Fatalf("SpMM only %.1f%% on reddit; expected dominance", pct[sim.KindSpMM])
	}
	var total float64
	for _, v := range pct {
		total += v
	}
	if math.Abs(total-100) > 1e-6 {
		t.Fatalf("breakdown sums to %v", total)
	}
}

func TestPhantomAndRealTaskGraphsAgree(t *testing.T) {
	// Phantom mode must produce the identical schedule as a real run of a
	// structurally identical dataset.
	gReal := gen.Generate("agree", gen.DefaultBTER(200, 10, 5), 8, 3, false)
	gPhantom := gen.Generate("agree", gen.DefaultBTER(200, 10, 5), 8, 3, true)
	cfg := testConfig(4)
	trR, err := NewTrainer(gReal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trP, err := NewTrainer(gPhantom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sR, sP := mustEpoch(trR), mustEpoch(trP)
	if math.Abs(sR.EpochSeconds-sP.EpochSeconds) > 1e-12 {
		t.Fatalf("phantom epoch %g != real epoch %g", sP.EpochSeconds, sR.EpochSeconds)
	}
	if len(sR.Tasks) != len(sP.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(sR.Tasks), len(sP.Tasks))
	}
}

func TestSingleLayerModel(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(2)
	cfg.Layers = 1
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := mustEpoch(tr)
	if s.EpochSeconds <= 0 || math.IsNaN(s.Loss) {
		t.Fatalf("bad single-layer epoch: %+v", s)
	}
}

func TestThreeLayerModelConverges(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	cfg.Layers = 3
	cfg.Hidden = 24
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := mustTrain(tr, 60)
	if stats[len(stats)-1].TrainAcc < 0.65 {
		t.Fatalf("3-layer accuracy %v", stats[len(stats)-1].TrainAcc)
	}
}

func TestWeightsStayReplicated(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		mustEpoch(tr)
	}
	for d := 1; d < 4; d++ {
		for l := range tr.weights[0] {
			if !tensor.Equal(tr.weights[0][l], tr.weights[d][l], 0) {
				t.Fatalf("device %d layer %d weights diverged from device 0", d, l)
			}
		}
	}
}

func TestMemoryAccountedPerDevice(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(2)
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PeakMemoryBytes() <= 0 {
		t.Fatalf("no memory accounted")
	}
	for d, pool := range tr.Machine.Pools {
		if pool.Used() == 0 {
			t.Fatalf("device %d's pool has no allocations", d)
		}
	}
}

// ringGraph returns an n-vertex dataset whose first linked vertices form an
// undirected ring and whose remaining vertices are isolated, with random
// features, alternating labels and no masks (every vertex trains).
func ringGraph(n, linked int) *graph.Graph {
	var entries []sparse.Coo
	for v := 0; v < linked; v++ {
		u := (v + 1) % linked
		entries = append(entries, sparse.Coo{Row: int32(v), Col: int32(u), Val: 1}, sparse.Coo{Row: int32(u), Col: int32(v), Val: 1})
	}
	g := &graph.Graph{Name: "ring", Adj: sparse.FromCoo(n, n, entries, true), Classes: 2, FeatDim: 5}
	g.Features = nn.InitWeights([]int{n, g.FeatDim}, 3)[0]
	g.Labels = make([]int32, n)
	for v := range g.Labels {
		g.Labels[v] = int32(v % 2)
	}
	return g
}

// TestDegenerateInputs pins the inputs at the edges of the partitioned
// trainers as behaviour: more devices than vertices (empty blocks), isolated
// vertices, a one-wide hidden layer and a single layer each train one epoch
// to a finite positive loss on every strategy, and the GAT forward returns
// finite logits. None may panic.
func TestDegenerateInputs(t *testing.T) {
	cases := []struct {
		name           string
		g              *graph.Graph
		p, hid, layers int
	}{
		{"P > n", ringGraph(6, 6), 8, 4, 2},
		{"isolated vertices", ringGraph(40, 20), 4, 4, 2},
		{"Hidden = 1", testGraph(t), 4, 1, 2},
		{"Layers = 1", testGraph(t), 4, 4, 1},
	}
	for _, tc := range cases {
		for _, st := range []Strategy{Strategy1DRow, Strategy1DCol, Strategy15D} {
			cfg := testConfig(tc.p)
			cfg.Hidden, cfg.Layers, cfg.Strategy = tc.hid, tc.layers, st
			tr, err := NewTrainer(tc.g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, st, err)
			}
			s, err := tr.RunEpoch()
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, st, err)
			}
			if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) || s.Loss <= 0 || len(s.Tasks) == 0 {
				t.Fatalf("%s/%s: loss %v over %d tasks", tc.name, st, s.Loss, len(s.Tasks))
			}
		}
		cfg := testConfig(tc.p)
		dims := nn.LayerDims(tc.g.FeatDim, tc.hid, tc.layers, tc.g.Classes)
		dist, err := NewGATDist(tc.g, nn.NewGAT(tc.g, dims, 3), cfg)
		if err != nil {
			t.Fatalf("%s/gat: %v", tc.name, err)
		}
		logits, _, err := dist.Forward()
		if err != nil {
			t.Fatalf("%s/gat: %v", tc.name, err)
		}
		for i, x := range logits.Data {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatalf("%s/gat: logit %d is %v", tc.name, i, x)
			}
		}
	}
}

// TestBroadcastStagingIsShapeOnly: a broadcast-staged SpMM reads the root's
// block in place, so BC1/BC2 hold no host storage under 1D-row, 1.5D and the
// GAT, yet they stay in the L+3 count and charge the pool exactly as their
// phantom twins' do. 1D-col's BC partials are real sums and keep storage.
func TestBroadcastStagingIsShapeOnly(t *testing.T) {
	g := testGraph(t)
	phantom := gen.Generate("core-test", gen.DefaultBTER(160, 8, 99), 12, 4, true)
	check := func(name string, devs []*deviceState, shapeOnly bool, layers int) {
		for d, ds := range devs {
			if n := ds.bufs.Count(); n != layers+3 {
				t.Errorf("%s: device %d holds %d buffers, want L+3 = %d", name, d, n, layers+3)
			}
			for _, bc := range []*Buffer{ds.bufs.BC1, ds.bufs.BC2} {
				if (bc.data == nil) != shapeOnly {
					t.Errorf("%s: device %d %s has storage %t, want %t", name, d, bc.label, bc.data != nil, !shapeOnly)
				}
			}
		}
	}
	for _, st := range Strategies() {
		cfg := testConfig(4)
		cfg.Strategy = st
		tr, twin := mustNewTrainer(t, g, cfg), mustNewTrainer(t, phantom, cfg)
		mustEpoch(tr)
		mustEpoch(twin)
		check(st.String(), tr.devs, !st.reduceStaged(), cfg.Layers)
		if got, want := tr.PeakMemoryBytes(), twin.PeakMemoryBytes(); got != want {
			t.Errorf("%v: PeakMemoryBytes %d, phantom twin %d", st, got, want)
		}
		for d, pool := range tr.Machine.Pools {
			if got, want := pool.Used(), twin.Machine.Pools[d].Used(); got != want {
				t.Errorf("%v: device %d pool charges %d B, phantom twin %d B", st, d, got, want)
			}
		}
	}
	dist, err := NewGATDist(g, nn.NewGAT(g, nn.LayerDims(g.FeatDim, 16, 2, g.Classes), 3), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	mustGATForward(dist)
	check("gat", dist.devs, true, 2)
}
