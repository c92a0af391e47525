package main

import (
	"time"

	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/sample"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// directReps is how often each direct layer call is repeated; the median
// is reported.
const directReps = 20

// planBatches is how many batches of the first epoch plan the sampler calls
// cover (fewer when the plan is shorter).
const planBatches = 40

// medianMS runs fn reps times and returns its median wall-clock in ms.
func medianMS(reps int, fn func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t := time.Now()
		fn()
		d[i] = ms(time.Since(t))
	}
	return median(d)
}

// rate converts work per call and ms per call to work/1e9 per second.
func rate(work int64, perCallMS float64) float64 { return float64(work) / 1e9 / (perCallMS / 1e3) }

// directCalls times the layer functions themselves, outside any trainer, on
// operands cut from the workload's own graph. The sampler calls use the
// workload's batch size and fanouts (the full-batch workloads, which have
// none, borrow DefaultSampledOptions' 512 x [5,10,15]), over the first
// planBatches batches of epoch 0's plan. The dense and sparse kernels run
// at the shapes one device sees in layer 0: fullRows x feat x hidden on a
// full-batch workload (the SpMM on that device's row panel of the
// normalised adjacency), and batch 0's outermost block on a sampled one
// (fullRows 0).
func directCalls(m *metricSet, w workload, g *graph.Graph, seed uint64, fullRows int) {
	batch, fanouts := w.Batch, w.Fanouts
	if !w.Sampled {
		batch, fanouts = 512, []int{5, 10, 15}
	}
	var trainVerts []int32
	for v, in := range g.TrainMask {
		if in {
			trainVerts = append(trainVerts, int32(v))
		}
	}
	plan := sample.PlanEpoch(trainVerts, batch, int64(seed), 0)
	nb := len(plan.Batches)
	if nb > planBatches {
		nb = planBatches
	}

	// sample: BuildBlocks per batch, then the feature gather of each
	// outermost frontier through a half-size degree-ordered cache.
	var (
		buildMS  []float64
		blocks0  []*sample.Block // outermost block of every batch
		edges    int64
		srcRows  int
		buildSum time.Duration
	)
	for b := 0; b < nb; b++ {
		t := time.Now()
		blocks := sample.BuildBlocks(g.Adj, plan.Batches[b], fanouts, plan.Seeds[b])
		d := time.Since(t)
		buildSum += d
		buildMS = append(buildMS, ms(d))
		for _, blk := range blocks {
			edges += blk.Adj.NNZ()
		}
		blocks0 = append(blocks0, blocks[0])
		srcRows += len(blocks[0].Src)
	}
	m.set("sample.build_blocks_ms_p50", median(buildMS))
	m.set("sample.sampled_edges_per_s", float64(edges)/buildSum.Seconds())
	m.set("sample.frontier_frac", float64(srcRows)/float64(nb)/float64(g.N()))

	cache := sample.NewFeatureCache(g.Features, g.InDegrees(), 0.5)
	var gatherMS []float64
	var x0 *tensor.Dense // batch 0's gathered input features
	for b, blk := range blocks0 {
		dst := tensor.NewDense(len(blk.Src), g.FeatDim)
		t := time.Now()
		cache.Gather(dst, g.Features, blk.Src)
		gatherMS = append(gatherMS, ms(time.Since(t)))
		if b == 0 {
			x0 = dst
		}
	}
	m.set("sample.gather_ms_p50", median(gatherMS))
	m.set("sparse.transpose_ms", medianMS(directReps, func() { blocks0[0].Adj.Transpose() }))

	// tensor: the three GeMM forms of layer 0, forward then the two
	// gradients, at rows x feat x hidden.
	x := x0
	if !w.Sampled {
		x = g.Features.RowSlice(0, fullRows)
	}
	w0 := nn.InitWeights(nn.LayerDims(w.Feat, w.Hidden, w.Layers, classes), int64(seed))[0]
	hw := tensor.NewDense(x.Rows, w.Hidden)
	wGrad := tensor.NewDense(w.Feat, w.Hidden)
	xGrad := tensor.NewDense(x.Rows, w.Feat)
	flops := tensor.GemmFlops(x.Rows, w.Feat, w.Hidden)
	m.set("tensor.gemm_gflops", rate(flops, medianMS(directReps, func() { tensor.Gemm(1, x, w0, 0, hw) })))
	m.set("tensor.gemm_ta_gflops", rate(flops, medianMS(directReps, func() { tensor.GemmTA(1, x, hw, 0, wGrad) })))
	m.set("tensor.gemm_tb_gflops", rate(flops, medianMS(directReps, func() { tensor.GemmTB(1, hw, w0, 0, xGrad) })))

	// sparse: aggregation of the transformed rows at width hidden. Bytes
	// are computed, not measured: per stored entry its column index and
	// value plus one dense row read, and one write of the output.
	var adj *sparse.CSR
	var src *tensor.Dense
	if w.Sampled {
		adj, src = blocks0[0].Adj, hw
	} else {
		adj = g.NormalizedAdj().SubMatrix(0, fullRows, 0, g.N())
		src = tensor.NewDense(g.N(), w.Hidden)
		tensor.Gemm(1, g.Features, w0, 0, src)
	}
	out := tensor.NewDense(adj.Rows, w.Hidden)
	spmmMS := medianMS(directReps, func() { sparse.SpMM(adj, src, 0, out) })
	width := int64(w.Hidden)
	m.set("sparse.spmm_gflops", rate(sparse.SpMMFlops(adj.NNZ(), w.Hidden), spmmMS))
	m.set("sparse.spmm_gbps", rate(adj.NNZ()*(8+4*width)+int64(adj.Rows)*4*width, spmmMS))
}
