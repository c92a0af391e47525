package sparse

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mggcn/internal/tensor"
)

func benchCSR(n int, degree int) *CSR {
	rng := rand.New(rand.NewSource(2))
	entries := make([]Coo, 0, n*degree)
	for u := 0; u < n; u++ {
		for d := 0; d < degree; d++ {
			entries = append(entries, Coo{Row: int32(u), Col: int32(rng.Intn(n)), Val: 1})
		}
	}
	return FromCoo(n, n, entries, true)
}

func BenchmarkSpMM(b *testing.B) {
	for _, cfg := range []struct{ n, deg, d int }{
		{4096, 8, 128}, {4096, 64, 128}, {4096, 8, 512},
	} {
		b.Run(fmt.Sprintf("n=%d/deg=%d/d=%d", cfg.n, cfg.deg, cfg.d), func(b *testing.B) {
			a := benchCSR(cfg.n, cfg.deg)
			x := tensor.NewDense(cfg.n, cfg.d)
			c := tensor.NewDense(cfg.n, cfg.d)
			b.SetBytes(a.NNZ() * int64(cfg.d) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SpMM(a, x, 0, c)
			}
		})
	}
}

// BenchmarkSpMMFlat is the pre-blocking kernel on the same shapes as
// BenchmarkSpMM — the flat-vs-blocked pair the CI smoke run keeps honest.
func BenchmarkSpMMFlat(b *testing.B) {
	for _, cfg := range []struct{ n, deg, d int }{
		{4096, 8, 128}, {4096, 64, 128}, {4096, 8, 512},
	} {
		b.Run(fmt.Sprintf("n=%d/deg=%d/d=%d", cfg.n, cfg.deg, cfg.d), func(b *testing.B) {
			a := benchCSR(cfg.n, cfg.deg)
			x := tensor.NewDense(cfg.n, cfg.d)
			c := tensor.NewDense(cfg.n, cfg.d)
			b.SetBytes(a.NNZ() * int64(cfg.d) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SpMMFlat(a, x, 0, c)
			}
		})
	}
}

// tileCSR is a rows x cols valued tile with deg stored entries a row, their
// columns uniform over the first span columns and ascending within the row.
// (Built directly: a narrow span repeats columns, which FromCoo would merge.)
func tileCSR(rows, cols, deg, span int) *CSR {
	rng := rand.New(rand.NewSource(4))
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1), ColIdx: make([]int32, rows*deg), Vals: make([]float32, rows*deg)}
	for r := 0; r < rows; r++ {
		row := a.ColIdx[r*deg : (r+1)*deg]
		for k := range row {
			row[k] = int32(rng.Intn(span))
		}
		slices.Sort(row)
		a.RowPtr[r+1] = int64((r + 1) * deg)
	}
	for k := range a.Vals {
		a.Vals[k] = float32(rng.NormFloat64())
	}
	return a
}

// BenchmarkSpMMTiles times sparse.SpMM, one goroutine, on the tiles the
// repository benchmark's workloads train on — fullbatch-spmm's stage tile at
// its hidden width and at its class count, fullbatch-gemm's at its feature
// width, 104 (layer 0 aggregates before its GeMM, since 104 < 128), and one
// sampled-thin block — in GFLOP/s per stored entry, each as trained (random
// columns over the whole X block: L2, past L2, far past it) and with the
// columns confined to the 16 KB of X that stay in L1. The first column is
// what an epoch gets; the gap to the second is what residency would buy, and
// the second is the kernel's own ceiling (ROADMAP item 1). Each runs with a
// value per entry (a sampled block) and with Â's per-vertex scale, per row
// (the forward's Âᵀ tile) and per column (the backward's Â tile).
func BenchmarkSpMMTiles(b *testing.B) {
	for _, cfg := range []struct {
		name                   string
		rows, cols, deg, width int
	}{
		{"fullbatch-spmm", 4096, 4096, 96, 64},
		{"fullbatch-spmm-classes", 4096, 4096, 96, 47},
		{"fullbatch-gemm", 10000, 10000, 13, 104},
		{"sampled-thin", 2816, 28000, 10, 64},
	} {
		for _, span := range []int{cfg.cols, 16 << 10 / (4 * cfg.width)} {
			residency := "as-trained"
			if span < cfg.cols {
				residency = "L1"
			}
			for _, form := range []string{"vals", "row-scale", "col-scale"} {
				b.Run(cfg.name+"/"+residency+"/"+form, func(b *testing.B) {
					a := tileCSR(cfg.rows, cfg.cols, cfg.deg, span)
					switch form {
					case "row-scale":
						a.RowScale, a.Vals = a.Vals[:a.Rows], nil
					case "col-scale":
						a.ColScale, a.Vals = a.Vals[:a.Cols], nil
					}
					rng := rand.New(rand.NewSource(5))
					x, c := randomDense(rng, cfg.cols, cfg.width), tensor.NewDense(cfg.rows, cfg.width)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						SpMM(a, x, 0, c)
					}
					b.ReportMetric(float64(SpMMFlops(a.NNZ(), cfg.width))*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
				})
			}
		}
	}
}

func BenchmarkParallelSpMM(b *testing.B) {
	a := benchCSR(8192, 32)
	x := tensor.NewDense(8192, 256)
	c := tensor.NewDense(8192, 256)
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ParallelSpMM(a, x, 0, c, w)
			}
		})
	}
	// fullbatch-spmm's stage tile as an epoch runs it, on one and two lanes:
	// the rate the row kernel's in-body column check is measured by. Its
	// layer-1 passes run at the class width, 47, where a 16-float vector of
	// most X rows straddles two cache lines; at a row stride of 48 floats
	// (three whole lines) X's and C's rows start on a line, which is what
	// padding the layout to lines would buy the class width.
	for _, cfg := range []struct {
		name          string
		width, stride int
	}{{"fullbatch-spmm", 64, 64}, {"fullbatch-spmm-classes", 47, 47}, {"fullbatch-spmm-classes-stride48", 47, 48}} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", cfg.name, w), func(b *testing.B) {
				a := tileCSR(4096, 4096, 96, 4096)
				rng := rand.New(rand.NewSource(5))
				x, c := randomDense(rng, 4096, cfg.stride), tensor.NewDense(4096, cfg.stride)
				x.Cols, c.Cols = cfg.width, cfg.width
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ParallelSpMM(a, x, 0, c, w)
				}
				b.ReportMetric(float64(SpMMFlops(a.NNZ(), cfg.width))*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
}

func BenchmarkSDDMM(b *testing.B) {
	a := benchCSR(4096, 16)
	x := tensor.NewDense(4096, 128)
	y := tensor.NewDense(4096, 128)
	b.SetBytes(a.NNZ() * 128 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SDDMM(a, x, y)
	}
}

func BenchmarkTranspose(b *testing.B) {
	a := benchCSR(8192, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Transpose()
	}
}

func BenchmarkRowSoftmax(b *testing.B) {
	a := benchCSR(8192, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RowSoftmax(a)
	}
}
