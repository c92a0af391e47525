package sparse

import (
	"fmt"
	"math"

	"mggcn/internal/tensor"
)

// SDDMM computes the Sampled Dense-Dense Matrix Multiplication the paper
// names as future work (§7): for every stored position (u, v) of pattern,
// out(u, v) = <a_u, b_v>. The output shares pattern's structure arrays and
// carries fresh values. a has pattern.Rows rows, b has pattern.Cols rows
// (b is indexed by column — i.e. the product a bᵀ sampled at the pattern).
func SDDMM(pattern *CSR, a, b *tensor.Dense) *CSR {
	if a.Rows != pattern.Rows || b.Rows != pattern.Cols || a.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: SDDMM shape mismatch: pattern %dx%d, a %dx%d, b %dx%d",
			pattern.Rows, pattern.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := withFreshVals(pattern)
	if a.IsPhantom() || b.IsPhantom() {
		return out
	}
	for u := 0; u < pattern.Rows; u++ {
		ra := a.Row(u)
		for k := pattern.RowPtr[u]; k < pattern.RowPtr[u+1]; k++ {
			rb := b.Row(int(pattern.ColIdx[k]))
			var dot float32
			for j, av := range ra {
				dot += av * rb[j]
			}
			out.Vals[k] = dot
		}
	}
	return out
}

// withFreshVals returns a CSR sharing pattern's structure with a new,
// zeroed value array.
func withFreshVals(pattern *CSR) *CSR {
	return &CSR{
		Rows: pattern.Rows, Cols: pattern.Cols,
		RowPtr: pattern.RowPtr, ColIdx: pattern.ColIdx,
		Vals: make([]float32, pattern.NNZ()),
	}
}

// LeakyReLUVals applies LeakyReLU with the given negative slope to every
// stored value, returning a new value-carrying CSR on the same structure.
func LeakyReLUVals(m *CSR, slope float32) *CSR {
	if m.Vals == nil {
		panic("sparse: LeakyReLUVals on structure-only matrix")
	}
	out := withFreshVals(m)
	for i, v := range m.Vals {
		if v > 0 {
			out.Vals[i] = v
		} else {
			out.Vals[i] = slope * v
		}
	}
	return out
}

// RowSoftmax normalizes each row's stored values with a numerically stable
// softmax (rows without entries are untouched) — the edge-softmax of graph
// attention, with rows as destinations and columns as attended sources.
func RowSoftmax(m *CSR) *CSR {
	if m.Vals == nil {
		panic("sparse: RowSoftmax on structure-only matrix")
	}
	out := withFreshVals(m)
	for u := 0; u < m.Rows; u++ {
		start, end := m.RowPtr[u], m.RowPtr[u+1]
		if start == end {
			continue
		}
		mx := m.Vals[start]
		for k := start + 1; k < end; k++ {
			if m.Vals[k] > mx {
				mx = m.Vals[k]
			}
		}
		var sum float64
		for k := start; k < end; k++ {
			sum += math.Exp(float64(m.Vals[k] - mx))
		}
		for k := start; k < end; k++ {
			out.Vals[k] = float32(math.Exp(float64(m.Vals[k]-mx)) / sum)
		}
	}
	return out
}

// RowSoftmaxBackward computes the gradient through RowSoftmax: given the
// softmax outputs alpha and dAlpha (both on the same structure), returns
// dE with dE_k = alpha_k * (dAlpha_k - sum_j alpha_j dAlpha_j) per row.
func RowSoftmaxBackward(alpha, dAlpha *CSR) *CSR {
	if alpha.Vals == nil || dAlpha.Vals == nil {
		panic("sparse: RowSoftmaxBackward needs values")
	}
	if alpha.NNZ() != dAlpha.NNZ() || alpha.Rows != dAlpha.Rows {
		panic("sparse: RowSoftmaxBackward structure mismatch")
	}
	out := withFreshVals(alpha)
	for u := 0; u < alpha.Rows; u++ {
		start, end := alpha.RowPtr[u], alpha.RowPtr[u+1]
		var dot float64
		for k := start; k < end; k++ {
			dot += float64(alpha.Vals[k]) * float64(dAlpha.Vals[k])
		}
		for k := start; k < end; k++ {
			out.Vals[k] = alpha.Vals[k] * (dAlpha.Vals[k] - float32(dot))
		}
	}
	return out
}

// RowSums returns the per-row sum of stored values.
func RowSums(m *CSR) []float32 {
	if m.Vals == nil {
		panic("sparse: RowSums on structure-only matrix")
	}
	out := make([]float32, m.Rows)
	for u := 0; u < m.Rows; u++ {
		var s float32
		for k := m.RowPtr[u]; k < m.RowPtr[u+1]; k++ {
			s += m.Vals[k]
		}
		out[u] = s
	}
	return out
}

// ColSums returns the per-column sum of stored values.
func ColSums(m *CSR) []float32 {
	if m.Vals == nil {
		panic("sparse: ColSums on structure-only matrix")
	}
	out := make([]float32, m.Cols)
	for k, c := range m.ColIdx {
		out[c] += m.Vals[k]
	}
	return out
}
