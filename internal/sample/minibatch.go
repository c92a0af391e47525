package sample

import (
	"fmt"

	"mggcn/internal/graph"
	"mggcn/internal/nn"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// Block is one sampled bipartite aggregation layer: Adj rows are the
// destination frontier (the vertices whose representations the layer
// produces), columns the source frontier, and values 1/sampled-degree so
// SpMM averages like the full-batch eq. (2).
type Block struct {
	Adj *sparse.CSR
	// AdjT is Adjᵀ (the block in CSC), built with the block so the backward
	// pass never transposes. The outermost block (blocks[0]) has none: its
	// sources are input features, which no gradient propagates to.
	AdjT *sparse.CSR
	// Src and Dst map local indices to graph vertex ids.
	Src, Dst []int32
}

// BuildBlocks materializes the per-layer blocks for one mini-batch: blocks
// run outermost-first, so blocks[0] consumes raw input features and
// blocks[len-1] produces the batch vertices. Self-loops are added so a
// vertex's own representation survives aggregation (GraphSAGE style). It is
// the one-shot form of Sampler.Build: the blocks own their storage.
func BuildBlocks(adj *sparse.CSR, batch []int32, fanouts []int, seed int64) []*Block {
	return NewSampler(adj, fanouts).Build(batch, seed)
}

// MiniBatchGCN is a single-device sampled GCN trainer — the approach the
// paper's introduction contrasts with full-batch training. It reuses the
// full-batch model shape (aggregate-then-transform per layer) on sampled
// bipartite blocks.
type MiniBatchGCN struct {
	Graph   *graph.Graph
	Weights []*tensor.Dense
	Dims    []int
	Fanouts []int
	Batch   int
	Opt     *nn.Adam

	rng *RNG
	// trainVerts is the shuffled pool of training vertices.
	trainVerts []int32
	// EdgesTouched accumulates the sampled edge work across epochs.
	EdgesTouched int64
}

// NewMiniBatchGCN builds the trainer; fanouts must have one entry per layer.
func NewMiniBatchGCN(g *graph.Graph, dims []int, fanouts []int, batch int, lr float64, seed int64) *MiniBatchGCN {
	if len(fanouts) != len(dims)-1 {
		panic(fmt.Sprintf("sample: %d fanouts for %d layers", len(fanouts), len(dims)-1))
	}
	if batch < 1 {
		panic("sample: batch must be positive")
	}
	m := &MiniBatchGCN{
		Graph: g, Dims: dims, Fanouts: fanouts, Batch: batch,
		Weights: nn.InitWeights(dims, seed),
		rng:     NewRNG(seed + 1),
	}
	m.Opt = nn.NewAdam(lr, m.Weights)
	for v := 0; v < g.N(); v++ {
		if g.TrainMask == nil || g.TrainMask[v] {
			m.trainVerts = append(m.trainVerts, int32(v))
		}
	}
	return m
}

// TrainEpoch runs one pass over the training vertices in sampled
// mini-batches and returns the mean batch loss.
func (m *MiniBatchGCN) TrainEpoch() float64 {
	m.rng.Shuffle(len(m.trainVerts), func(i, j int) {
		m.trainVerts[i], m.trainVerts[j] = m.trainVerts[j], m.trainVerts[i]
	})
	var totalLoss float64
	batches := 0
	for start := 0; start < len(m.trainVerts); start += m.Batch {
		end := start + m.Batch
		if end > len(m.trainVerts) {
			end = len(m.trainVerts)
		}
		totalLoss += m.trainBatch(m.trainVerts[start:end])
		batches++
	}
	if batches == 0 {
		return 0
	}
	return totalLoss / float64(batches)
}

func (m *MiniBatchGCN) trainBatch(batch []int32) float64 {
	if m.Graph.Features.IsPhantom() {
		panic("sample: minibatch training needs real features")
	}
	blocks := BuildBlocks(m.Graph.Adj, batch, m.Fanouts, m.rng.Int63())
	for _, b := range blocks {
		m.EdgesTouched += b.Adj.NNZ()
	}
	L := len(m.Weights)
	// Forward: gather input features for the outermost frontier, then per
	// layer aggregate over the block and transform.
	h := gatherRows(m.Graph.Features, blocks[0].Src)
	inputs := make([]*tensor.Dense, L) // H at each layer (source side)
	aggs := make([]*tensor.Dense, L)   // AH per layer
	outs := make([]*tensor.Dense, L)   // post-activation outputs
	for l := 0; l < L; l++ {
		inputs[l] = h
		ah := tensor.NewDense(blocks[l].Adj.Rows, h.Cols)
		sparse.SpMM(blocks[l].Adj, h, 0, ah)
		aggs[l] = ah
		z := tensor.NewDense(ah.Rows, m.Weights[l].Cols)
		tensor.Gemm(1, ah, m.Weights[l], 0, z)
		if l < L-1 {
			tensor.ReLU(z, z)
		}
		outs[l] = z
		h = z
	}
	logits := outs[L-1]
	labels := make([]int32, len(blocks[L-1].Dst))
	for i, v := range blocks[L-1].Dst {
		labels[i] = m.Graph.Labels[v]
	}
	grad := tensor.NewDense(logits.Rows, logits.Cols)
	loss, _ := nn.SoftmaxCrossEntropy(logits, labels, nil, grad)
	// Backward.
	grads := make([]*tensor.Dense, L)
	g := grad
	for l := L - 1; l >= 0; l-- {
		if l < L-1 {
			masked := tensor.NewDense(g.Rows, g.Cols)
			tensor.ReLUBackward(masked, g, outs[l])
			g = masked
		}
		wg := tensor.NewDense(m.Weights[l].Rows, m.Weights[l].Cols)
		tensor.GemmTA(1, aggs[l], g, 0, wg)
		grads[l] = wg
		if l > 0 {
			dAH := tensor.NewDense(g.Rows, m.Weights[l].Rows)
			tensor.GemmTB(1, g, m.Weights[l], 0, dAH)
			dH := tensor.NewDense(inputs[l].Rows, inputs[l].Cols)
			sparse.SpMM(blocks[l].AdjT, dAH, 0, dH)
			g = dH
		}
	}
	m.Opt.Step(m.Weights, grads)
	return loss
}

// TestAccuracy evaluates the current weights full-batch (no sampling at
// inference, the standard protocol) on the graph's test mask.
func (m *MiniBatchGCN) TestAccuracy() float64 {
	ref := fullForward(m.Graph, m.Weights, m.Dims)
	return nn.Accuracy(ref, m.Graph.Labels, m.Graph.TestMask)
}

// fullForward runs the mini-batch model's aggregate-then-transform layers
// over the whole graph with mean aggregation plus self-loops, matching the
// sampled blocks' semantics.
func fullForward(g *graph.Graph, weights []*tensor.Dense, dims []int) *tensor.Dense {
	if g.Features.IsPhantom() {
		panic("sample: full forward needs real features")
	}
	// Self-looped mean aggregation.
	entries := make([]sparse.Coo, 0, int(g.M())+g.N())
	for v := 0; v < g.N(); v++ {
		entries = append(entries, sparse.Coo{Row: int32(v), Col: int32(v), Val: 1})
		cols, _ := g.Adj.Row(v)
		for _, u := range cols {
			entries = append(entries, sparse.Coo{Row: int32(v), Col: u, Val: 1})
		}
	}
	agg := sparse.NormalizeRowMean(sparse.FromCoo(g.N(), g.N(), entries, true))
	h := g.Features
	for l := 0; l < len(weights); l++ {
		ah := tensor.NewDense(g.N(), h.Cols)
		sparse.SpMM(agg, h, 0, ah)
		z := tensor.NewDense(g.N(), weights[l].Cols)
		tensor.Gemm(1, ah, weights[l], 0, z)
		if l < len(weights)-1 {
			tensor.ReLU(z, z)
		}
		h = z
	}
	return h
}

func gatherRows(x *tensor.Dense, verts []int32) *tensor.Dense {
	out := tensor.NewDense(len(verts), x.Cols)
	for i, v := range verts {
		copy(out.Row(i), x.Row(int(v)))
	}
	return out
}
