package gen

import (
	"math/rand"

	"mggcn/internal/kernel"
	"mggcn/internal/pool"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// classDraws are every draw of a dataset's labels and features, in the order
// rng gives them. None depends on the graph, so they can be drawn while it is
// built.
//
// Labels have homophily: random classes diffuse along edges for a few rounds
// (each vertex adopting the majority label of its neighborhood), then one
// random vertex per class takes it so the softmax head sees every class — a
// label field correlated with graph structure, which is what lets a GCN
// outperform a pure MLP. Features are the class centroid plus Gaussian noise
// of the given scale: high noise leaves single vertices near-uninformative,
// so only neighborhood aggregation (§2) recovers the signal.
type classDraws struct {
	labels    []int32 // each vertex's class before the diffusion
	fix       []int   // the vertex that takes class c after it
	centroids *tensor.Dense
	x         *tensor.Dense // each feature's noise term
}

func drawClasses(n, featDim, classes int, noise float64, rng *rand.Rand) classDraws {
	d := classDraws{labels: make([]int32, n), fix: make([]int, min(classes, n)), centroids: tensor.NewDense(classes, featDim), x: tensor.NewDense(n, featDim)}
	for i := range d.labels {
		d.labels[i] = int32(rng.Intn(classes))
	}
	for i := range d.fix {
		d.fix[i] = rng.Intn(n)
	}
	for i := range d.centroids.Data {
		d.centroids.Data[i] = float32(rng.NormFloat64())
	}
	for i := range d.x.Data {
		d.x.Data[i] = float32(noise) * float32(rng.NormFloat64())
	}
	return d
}

// finish diffuses the labels over adj on up to lanes pool lanes (0:
// GOMAXPROCS), applies the fix-ups and adds each row's centroid. Each
// feature is still one float32 product and one float32 add, so the bits are
// those of drawing it in one pass.
func (d classDraws) finish(adj *sparse.CSR, lanes int) ([]int32, *tensor.Dense) {
	labels := propagate(adj, d.labels, d.centroids.Rows, lanes)
	for c, v := range d.fix {
		labels[v] = int32(c)
	}
	for v, l := range labels {
		kernel.Add(d.centroids.Row(int(l)), d.x.Row(v))
	}
	return labels, d.x
}

// propagate runs three rounds of majority diffusion, each a parallel map
// over the vertices.
func propagate(adj *sparse.CSR, labels []int32, classes, lanes int) []int32 {
	for round := 0; round < 3; round++ {
		next := make([]int32, len(labels))
		pool.ParallelFor(len(labels), lanes, func(lo, hi int) {
			counts := make([]int32, classes)
			for v := lo; v < hi; v++ {
				cols, _ := adj.Row(v)
				if len(cols) == 0 {
					next[v] = labels[v]
					continue
				}
				clear(counts)
				counts[labels[v]] += 2 // self-affinity keeps mixing partial
				for _, u := range cols {
					counts[labels[u]]++
				}
				best := int32(0)
				for c := 1; c < classes; c++ {
					if counts[c] > counts[best] {
						best = int32(c)
					}
				}
				next[v] = best
			}
		})
		labels = next
	}
	return labels
}
