// Benchmarks on BTER power-law instances (external test package: gen
// depends on sparse through graph).
package sparse_test

import (
	"fmt"
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/part"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// BenchmarkParallelSpMMBTER times ParallelSpMM's nnz-balanced chunking. The
// skew is the point — BTER's heavy-degree head makes equal-rows chunks
// pathologically unbalanced, the regime the prefix-sum split targets.
func BenchmarkParallelSpMMBTER(b *testing.B) {
	g := gen.Generate("bench-bter", gen.DefaultBTER(8192, 32, 7), 1, 2, false)
	a := g.NormalizedAdj()
	x := tensor.NewDense(a.Cols, 128)
	for i := range x.Data {
		x.Data[i] = float32(i%13) * 0.1
	}
	c := tensor.NewDense(a.Rows, 128)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.SetBytes(sparse.SpMMFlops(a.NNZ(), 128) * 2) // flops as a throughput proxy
			for i := 0; i < b.N; i++ {
				sparse.ParallelSpMM(a, x, 0, c, w)
			}
		})
	}
}

// BenchmarkPartitionTiles times the set-up's tiling of Â at the
// fullbatch-spmm benchmark workload's shape (its BTER graph, n 16384 at
// degree 384, random ordering, 4 blocks), beside the oracle it replaced:
// PermuteSymmetric, Transpose, and SubMatrix for every tile.
func BenchmarkPartitionTiles(b *testing.B) {
	a := sparse.NormalizeInDegree(gen.BTER(gen.DefaultBTER(16384, 384, 1)))
	perm, vec := part.RandomPerm(a.Rows, 1), part.Uniform(a.Rows, 4)
	b.Run("PermutedTiles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.PermutedTiles(a, perm, vec)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			norm := sparse.PermuteSymmetric(a, perm)
			at := norm.Transpose()
			for r := 0; r < vec.Parts(); r++ {
				for c := 0; c < vec.Parts(); c++ {
					r0, r1 := vec.Bounds(r)
					c0, c1 := vec.Bounds(c)
					at.SubMatrix(r0, r1, c0, c1)
					norm.SubMatrix(r0, r1, c0, c1)
				}
			}
		}
	})
}
