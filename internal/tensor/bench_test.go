package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchDense(rows, cols int) *Dense {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = float32(rng.NormFloat64())
	}
	return d
}

func BenchmarkGemm(b *testing.B) {
	for _, size := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("%dx%dx%d", size, size, size), func(b *testing.B) {
			a, x := benchDense(size, size), benchDense(size, size)
			c := NewDense(size, size)
			b.SetBytes(int64(size) * int64(size) * int64(size) * 2 * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(1, a, x, 0, c)
			}
		})
	}
}

// BenchmarkGemmFlat is the pre-blocking kernel on the same shapes as
// BenchmarkGemm — the flat-vs-blocked pair the CI smoke run keeps honest.
func BenchmarkGemmFlat(b *testing.B) {
	for _, size := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("%dx%dx%d", size, size, size), func(b *testing.B) {
			a, x := benchDense(size, size), benchDense(size, size)
			c := NewDense(size, size)
			b.SetBytes(int64(size) * int64(size) * int64(size) * 2 * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GemmFlat(1, a, x, 0, c)
			}
		})
	}
}

func BenchmarkParallelGemmTA(b *testing.B) {
	a, x := benchDense(4096, 128), benchDense(4096, 128)
	c := NewDense(128, 128)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ParallelGemmTA(1, a, x, 0, c, workers)
			}
		})
	}
}

func BenchmarkParallelGemm(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			a, x := benchDense(512, 512), benchDense(512, 512)
			c := NewDense(512, 512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ParallelGemm(1, a, x, 0, c, workers)
			}
		})
	}
}

// layerShapes are one device's rows x in x out of every dense layer the four
// benchmark workloads train (benchmark/README.md): the two full-batch
// layers, the saturated frontier's three, and the thin frontier's first.
var layerShapes = []struct{ rows, in, out int }{
	{10000, 104, 128}, {10000, 128, 47}, // fullbatch-gemm
	{15600, 104, 128}, {6500, 128, 128}, {512, 128, 47}, // sampled-fanout
	{2816, 64, 32}, // sampled-thin
}

// BenchmarkLayerGemm times the three products of a layer at those shapes —
// forward X*W, weight gradient Xᵀ*G, input gradient G*Wᵀ, all 2*rows*in*out
// flops — through the sequential kernels, as benchmark/direct.go does.
func BenchmarkLayerGemm(b *testing.B) {
	for _, sh := range layerShapes {
		x, w, g := benchDense(sh.rows, sh.in), benchDense(sh.in, sh.out), benchDense(sh.rows, sh.out)
		hw, wGrad, xGrad := NewDense(sh.rows, sh.out), NewDense(sh.in, sh.out), NewDense(sh.rows, sh.in)
		for _, p := range []struct {
			name string
			call func()
		}{
			{"fwd", func() { Gemm(1, x, w, 0, hw) }},
			{"ta", func() { GemmTA(1, x, g, 0, wGrad) }},
			{"tb", func() { GemmTB(1, g, w, 0, xGrad) }},
		} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", p.name, sh.rows, sh.in, sh.out), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.call()
				}
				flops := float64(GemmFlops(sh.rows, sh.in, sh.out)) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkActivation times the two elementwise passes on N(0,1) data, where
// the sign of every element is a coin flip.
func BenchmarkActivation(b *testing.B) {
	const rows, cols = 16384, 128
	src, grad := benchDense(rows, cols), benchDense(rows, cols)
	act, dst := NewDense(rows, cols), NewDense(rows, cols)
	ReLU(act, src)
	perElement := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows*cols), "ns/element")
	}
	b.Run("ReLU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReLU(dst, src)
		}
		perElement(b)
	})
	b.Run("ReLUBackward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReLUBackward(dst, grad, act)
		}
		perElement(b)
	})
}
