package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"mggcn/internal/comm"
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/nn"
	"mggcn/internal/sample"
	"mggcn/internal/san"
	"mggcn/internal/sim"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

func testSampledConfig(p int) SampledConfig {
	cfg := DefaultSampledConfig(sim.DGXA100(), p, 1)
	cfg.Hidden = 16
	cfg.Layers = 2
	cfg.Fanouts = []int{4, 6}
	// 96 train vertices at batch 8 → 12 batches → 3+ steps at P<=4, so the
	// double-buffer dependency (step s sampling over step s-2's training)
	// is genuinely exercised.
	cfg.Batch = 8
	cfg.CacheFrac = 0.5
	cfg.Seed = 7
	return cfg
}

// sampledFingerprint runs epochs and returns the per-epoch losses plus the
// final weight bits.
func sampledFingerprint(t *testing.T, cfg SampledConfig, epochs int) ([]float64, [][]float32) {
	t.Helper()
	tr, err := NewSampledTrainer(testGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Train(epochs)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for _, s := range stats {
		losses = append(losses, s.Loss)
	}
	var bits [][]float32
	for _, w := range tr.Weights() {
		bits = append(bits, append([]float32(nil), w.Data...))
	}
	return losses, bits
}

func sameFingerprint(t *testing.T, name string, l1, l2 []float64, w1, w2 [][]float32) {
	t.Helper()
	if len(l1) != len(l2) {
		t.Fatalf("%s: epoch counts differ", name)
	}
	for e := range l1 {
		if l1[e] != l2[e] {
			t.Fatalf("%s: epoch %d loss %v != %v", name, e, l1[e], l2[e])
		}
	}
	for l := range w1 {
		for i := range w1[l] {
			if w1[l][i] != w2[l][i] {
				t.Fatalf("%s: weight %d[%d] %v != %v", name, l, i, w1[l][i], w2[l][i])
			}
		}
	}
}

// TestSampledReplayParity is the pipeline's bit-identity bar: fixed seed ⇒
// identical losses and weights across serial replay, concurrent replay, and
// adversarial worst-case orders, with pipelining both off and on.
func TestSampledReplayParity(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		base := testSampledConfig(4)
		base.Pipeline = pipeline
		base.ExecWorkers = 1
		refLoss, refW := sampledFingerprint(t, base, 3)

		par := base
		par.ExecWorkers = 8
		l, w := sampledFingerprint(t, par, 3)
		sameFingerprint(t, "parallel", refLoss, l, refW, w)

		adv := base
		adv.ExecWorkers = 8
		adv.ExecSeed = 99
		l, w = sampledFingerprint(t, adv, 3)
		sameFingerprint(t, "adversarial", refLoss, l, refW, w)
	}
}

// TestSampledPipelineInvariance: the double buffer changes the schedule,
// never the arithmetic.
func TestSampledPipelineInvariance(t *testing.T) {
	off := testSampledConfig(3)
	off.Pipeline = false
	onCfg := testSampledConfig(3)
	onCfg.Pipeline = true
	l1, w1 := sampledFingerprint(t, off, 2)
	l2, w2 := sampledFingerprint(t, onCfg, 2)
	sameFingerprint(t, "pipeline on vs off", l1, l2, w1, w2)
}

// TestSampledCacheInvariance is the cached-vs-uncached property at trainer
// level: any cache fraction must leave losses and weights bit-identical —
// the cache is a verbatim copy of the hot rows.
func TestSampledCacheInvariance(t *testing.T) {
	base := testSampledConfig(4)
	base.CacheFrac = 0
	refLoss, refW := sampledFingerprint(t, base, 2)
	for _, frac := range []float64{0.25, 0.5, 1} {
		cfg := testSampledConfig(4)
		cfg.CacheFrac = frac
		l, w := sampledFingerprint(t, cfg, 2)
		sameFingerprint(t, "cache", refLoss, l, refW, w)
	}
}

// TestSampledSanClean runs the static happens-before check over the real
// recorded sampled graphs: the slot pseudo-buffers, cache slabs, weights and
// gradients must all be ordered by the recorded deps + FIFO + fences.
func TestSampledSanClean(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		cfg := testSampledConfig(4)
		cfg.Pipeline = pipeline
		tr, err := NewSampledTrainer(testGraph(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if got := san.Check(tr.LastGraph(), tr.LastGraph().HappensBefore(sim.ExecutorEdges)); len(got) != 0 {
			t.Errorf("pipeline=%t: %d unordered conflicts, e.g. %v", pipeline, len(got), got[0])
		}
	}
}

// TestSampledShadowClean replays under the NaN-poisoning shadow: every
// closure must stay inside its declared access sets (cache slabs included).
func TestSampledShadowClean(t *testing.T) {
	cfg := testSampledConfig(4)
	tr, err := NewSampledTrainer(testGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := san.NewShadow(tr.Registry())
	tr.Cfg.ExecObserver = sh
	if _, err := tr.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := sh.Findings; len(got) != 0 {
		t.Fatalf("shadow replay found %d undeclared accesses, e.g. %v", len(got), got[0])
	}
}

// stripRead is a Shadow that first drops one buffer from the Reads of every
// task whose label ends in suffix — an undeclared access, made on purpose.
type stripRead struct {
	*san.Shadow
	suffix string
	buf    sim.BufID
}

func (o stripRead) Before(t *sim.Task) {
	if strings.HasSuffix(t.Label, o.suffix) {
		t.Reads = slices.DeleteFunc(slices.Clone(t.Reads), func(b sim.BufID) bool { return b == o.buf })
	}
	o.Shadow.Before(t)
}

// TestSampledShadowFlagsUndeclaredHostRead: the layer-0 SpMM reads its input
// rows from the host feature store, not from X, so a declaration naming only
// X must fail the shadow replay — the poisoned host/x reaches AH_0.
func TestSampledShadowFlagsUndeclaredHostRead(t *testing.T) {
	tr, err := NewSampledTrainer(testGraph(t), testSampledConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	sh := san.NewShadow(tr.Registry())
	tr.Cfg.ExecObserver = stripRead{sh, "/fwd0/spmm", sim.BufID(tr.feat.Buf)}
	// The poison flows on into the loss, which fails the epoch's finiteness
	// check; the findings are what this test reads.
	if _, err := tr.RunEpoch(); err == nil {
		t.Fatal("a poisoned layer-0 input left the loss finite")
	}
	if len(sh.Findings) == 0 {
		t.Fatal("shadow replay missed the layer-0 SpMM's undeclared host/x read")
	}
	// Every later task inherits the NaN, so the first finding names the cause.
	if f := sh.Findings[0]; !strings.HasSuffix(f.Label, "/fwd0/spmm") || f.Kind != "undeclared-read" || !strings.HasSuffix(f.Name, "/buf/AH0") {
		t.Fatalf("first finding %v, want the layer-0 SpMM's undeclared read showing in AH0", f)
	}
}

// TestSampledMeterAccounting checks the extract stage's hit/miss words: the
// two classes sum to the total gather volume, a warm cache absorbs most of
// it, and no cache means all misses.
func TestSampledMeterAccounting(t *testing.T) {
	gatherWords := func(frac float64) (hit, miss int64) {
		cfg := testSampledConfig(4)
		cfg.CacheFrac = frac
		cfg.CommMeter = comm.NewMeter()
		tr, err := NewSampledTrainer(testGraph(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		return cfg.CommMeter.Words(sim.CollGatherHit), cfg.CommMeter.Words(sim.CollGatherMiss)
	}
	h0, m0 := gatherWords(0)
	if h0 != 0 || m0 == 0 {
		t.Fatalf("uncached epoch metered hit=%d miss=%d", h0, m0)
	}
	h5, m5 := gatherWords(0.5)
	if h5 == 0 {
		t.Fatal("50%% cache metered zero hits")
	}
	if h5+m5 != h0+m0 {
		t.Fatalf("gather volume changed with caching: %d+%d != %d", h5, m5, h0+m0)
	}
	if m5*2 > m0 {
		t.Fatalf("50%% degree-ordered cache only cut miss words from %d to %d (< 2x)", m0, m5)
	}
}

// TestSampledLossDecreases: a few epochs of sampled training must reduce
// the loss on the toy dataset — the end-to-end sanity check.
func TestSampledLossDecreases(t *testing.T) {
	cfg := testSampledConfig(2)
	tr, err := NewSampledTrainer(testGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Train(5)
	if err != nil {
		t.Fatal(err)
	}
	first, last := stats[0].Loss, stats[len(stats)-1].Loss
	if !(last < first) {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if stats[0].Batches == 0 {
		t.Fatal("epoch plan produced no batches")
	}
}

// TestSampledPipelineOverlap: with pipelining on, the sampler stream's work
// overlaps training — makespan strictly below the unpipelined run of the
// identical task set, and the overlap ratio rises.
func TestSampledPipelineOverlap(t *testing.T) {
	run := func(pipeline bool) *SampledEpochStats {
		cfg := testSampledConfig(4)
		cfg.Pipeline = pipeline
		tr, err := NewSampledTrainer(testGraph(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tr.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	off := run(false)
	on := run(true)
	if on.EpochSeconds >= off.EpochSeconds {
		t.Fatalf("pipelined makespan %v not below unpipelined %v", on.EpochSeconds, off.EpochSeconds)
	}
	if on.OverlapRatio <= off.OverlapRatio {
		t.Fatalf("overlap ratio did not rise: %v -> %v", off.OverlapRatio, on.OverlapRatio)
	}
}

// TestSampledLiveHighWater pins the sampled pipeline's live-slab bound, the
// minibatch analogue of §4.2's L+3: per device the slab set is the feature
// cache, the gathered-feature slab, G, and an AH and an OUT buffer per layer
// — exactly 2L+3 buffers simultaneously live, with the double-buffered
// handoff or without (the slots double-buffer blocks, not slabs), at every
// cache fraction (a 0-row cache slab still counts: it is registered and
// accessed by every extract).
func TestSampledLiveHighWater(t *testing.T) {
	for _, pipeline := range []bool{true, false} {
		for _, frac := range []float64{0, 0.25, 0.5, 1} {
			cfg := testSampledConfig(2)
			cfg.Pipeline = pipeline
			cfg.CacheFrac = frac
			tr, err := NewSampledTrainer(testGraph(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			want := 2*cfg.Layers + 3
			hw := memcheck.PeakLiveSlabs(tr.LastGraph(), tr.LastGraph().HappensBefore(sim.ExecutorEdges)).Count
			if len(hw) != cfg.P {
				t.Fatalf("pipeline=%v frac=%v: high-water covers %d devices, want %d", pipeline, frac, len(hw), cfg.P)
			}
			for dev, n := range hw {
				if n != want {
					t.Errorf("pipeline=%v frac=%v %s: %d slab buffers live at once, want exactly %d", pipeline, frac, dev, n, want)
				}
			}
		}
	}
}

// hostEpochTransformFirst trains one sampled epoch on the host in the layer
// order the device path used to run — y = h·W then z = A·y, backward
// u = Aᵀ·G, W_G = hᵀ·u, G = u·Wᵀ — from one-shot blocks, with the device
// path's step structure (p batches per step, gradients scaled by the step's
// row count, one Adam update per step). It returns the epoch's mean loss.
func hostEpochTransformFirst(g *graph.Graph, cfg SampledConfig, ws []*tensor.Dense, opt *nn.Adam, trainVerts []int32, epoch int) float64 {
	L := cfg.Layers
	plan := sample.PlanEpoch(trainVerts, cfg.Batch, cfg.Seed, epoch)
	var loss float64
	for lo := 0; lo < len(plan.Batches); lo += cfg.P {
		step := plan.Batches[lo:min(lo+cfg.P, len(plan.Batches))]
		stepRows := 0
		for _, batch := range step {
			stepRows += len(batch)
		}
		grads := make([]*tensor.Dense, L)
		for l, w := range ws {
			grads[l] = tensor.NewDense(w.Rows, w.Cols)
		}
		for i, batch := range step {
			blocks := sample.BuildBlocks(g.Adj, batch, cfg.Fanouts, plan.Seeds[lo+i])
			hs := make([]*tensor.Dense, L+1)
			hs[0] = tensor.NewDense(len(blocks[0].Src), g.FeatDim)
			for r, v := range blocks[0].Src {
				copy(hs[0].Row(r), g.Features.Row(int(v)))
			}
			for l := 0; l < L; l++ {
				y := tensor.NewDense(hs[l].Rows, ws[l].Cols)
				tensor.Gemm(1, hs[l], ws[l], 0, y)
				hs[l+1] = tensor.NewDense(blocks[l].Adj.Rows, ws[l].Cols)
				sparse.SpMM(blocks[l].Adj, y, 0, hs[l+1])
				if l < L-1 {
					tensor.ReLU(hs[l+1], hs[l+1])
				}
			}
			dst := blocks[L-1].Dst
			lb := make([]int32, len(dst))
			for r, v := range dst {
				lb[r] = g.Labels[v]
			}
			grad := tensor.NewDense(len(dst), g.Classes)
			loss += nn.SoftmaxCrossEntropySum(hs[L], lb, nil, grad, stepRows)
			for l := L - 1; l >= 0; l-- {
				if l < L-1 {
					tensor.ReLUBackward(grad, grad, hs[l+1])
				}
				u := tensor.NewDense(blocks[l].Adj.Cols, ws[l].Cols)
				sparse.SpMM(blocks[l].Adj.Transpose(), grad, 0, u)
				tensor.GemmTA(1, hs[l], u, 1, grads[l])
				grad = tensor.NewDense(u.Rows, ws[l].Rows)
				tensor.GemmTB(1, u, ws[l], 0, grad)
			}
		}
		opt.Step(ws, grads)
	}
	return loss / float64(len(trainVerts))
}

// TestSampledMatchesTransformFirstReference: aggregate-then-transform is the
// old transform-then-aggregate by associativity, so the device path's epoch
// losses must track a host reference in the old order to float
// re-association (1e-5 relative) over several epochs of training — forward,
// backward and the layer-0 shortcut all feed the second epoch's loss.
func TestSampledMatchesTransformFirstReference(t *testing.T) {
	g := testGraph(t)
	for _, layers := range []int{1, 2, 3} {
		cfg := testSampledConfig(2)
		cfg.Layers = layers
		cfg.Fanouts = []int{4, 6, 3}[:layers]
		tr, err := NewSampledTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws := nn.InitWeights(tr.Dims, cfg.Seed)
		opt := nn.NewAdam(cfg.LR, ws)
		for epoch := 0; epoch < 3; epoch++ {
			stats, err := tr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			want := hostEpochTransformFirst(g, cfg, ws, opt, tr.trainVerts, epoch)
			if diff := math.Abs(stats.Loss - want); diff > 1e-5*math.Abs(want) {
				t.Errorf("L=%d epoch %d: device loss %v, transform-first reference %v (rel %.2g)",
					layers, epoch, stats.Loss, want, diff/math.Abs(want))
			}
		}
	}
}

// TestSampledStagingSlabEdgeFlagged: the one gathered-feature slab per
// device is safe only because extract(s) waits for step s-1's layer-0 SpMM,
// X's last reader. With the pipelined handoff no other recorded edge orders
// the two, so deleting that one must make the sanitizer report the
// write-after-read on X — if it stops doing so, either the declarations went
// blind or the edge became redundant.
func TestSampledStagingSlabEdgeFlagged(t *testing.T) {
	cfg := testSampledConfig(2)
	cfg.Pipeline = true
	tr, err := NewSampledTrainer(testGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	tg := tr.LastGraph()
	if got := san.Check(tg, tg.HappensBefore(sim.ExecutorEdges)); len(got) != 0 {
		t.Fatalf("intact graph has %d conflicts, e.g. %v", len(got), got[0])
	}
	cut := 0
	for _, task := range tg.Tasks {
		if task.Kind != sim.KindExtract {
			continue
		}
		task.Deps = slices.DeleteFunc(task.Deps, func(dep int) bool {
			if strings.HasSuffix(tg.Tasks[dep].Label, "/fwd0/spmm") {
				cut++
				return true
			}
			return false
		})
	}
	if cut == 0 {
		t.Fatal("no extract task depends on a layer-0 SpMM")
	}
	got := san.Check(tg, tg.HappensBefore(sim.ExecutorEdges))
	if len(got) == 0 {
		t.Fatal("sanitizer reports no conflict with the extract → fwd0/spmm edges deleted")
	}
	for _, c := range got {
		if !strings.HasSuffix(c.Name, "/buf/x") {
			t.Errorf("unexpected conflict off the staging slab: %v", c)
		}
	}
}

// TestSampledPhantomSkipsValidation: a structure-only twin of a graph with a
// val mask, under TrackVal and a patience, has no features to validate on.
// It trains every epoch with no validation statistic and no early stop,
// rather than running the validation forward over no features and labels.
func TestSampledPhantomSkipsValidation(t *testing.T) {
	g := *testGraph(t)
	if nn.MaskCount(g.ValMask, 0) == 0 {
		t.Fatal("fixture has no validation vertices")
	}
	g.Features, g.Labels = nil, nil
	cfg := testSampledConfig(2)
	cfg.TrackVal, cfg.EarlyStopPatience = true, 1
	tr, err := NewSampledTrainer(&g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Train(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("phantom run stopped early after %d of 3 epochs", len(stats))
	}
	for e, s := range stats {
		if s.ValAcc != 0 || s.Loss != 0 || !(s.EpochSeconds > 0) {
			t.Errorf("epoch %d: val-acc %v loss %v sim %v, want 0, 0 and a scheduled epoch", e, s.ValAcc, s.Loss, s.EpochSeconds)
		}
	}
}
