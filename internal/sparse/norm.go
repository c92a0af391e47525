package sparse

// NormalizeInDegree applies the paper's eq. (2): each column v of A is
// divided by the total weight of v's in-edges, so every column of the
// returned matrix sums to 1 (columns with no in-edges stay zero). For a
// structure-only matrix the entry weights are taken as 1 and the result
// carries explicit values. The receiver is not modified.
//
// With this normalization Âᵀ*H averages each vertex's in-neighbor features,
// which is what makes the first layer's backward SpMM skippable (§4.4): the
// implied feature scaling matrix is the identity.
func NormalizeInDegree(a *CSR) *CSR {
	colSum := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			if vals != nil {
				colSum[c] += float64(vals[k])
			} else {
				colSum[c]++
			}
		}
	}
	out := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx}
	out.Vals = make([]float32, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		lo := a.RowPtr[i]
		for k, c := range cols {
			w := float64(1)
			if vals != nil {
				w = float64(vals[k])
			}
			if colSum[c] != 0 {
				out.Vals[lo+int64(k)] = float32(w / colSum[c])
			}
		}
	}
	return out
}

// FactoredInDegree is NormalizeInDegree(a) in the form eq. (2) has when a
// carries no weights: a's own structure, shared, and ColScale[v] =
// 1/in-degree(v) — the float32 NormalizeInDegree stores at every entry of
// column v, so every product with it is the same — in place of a value per
// entry. A weighted a has no such factoring and gets NormalizeInDegree(a).
func FactoredInDegree(a *CSR) *CSR {
	if a.Vals != nil {
		return NormalizeInDegree(a)
	}
	indeg := make([]float64, a.Cols)
	for _, c := range a.ColIdx {
		indeg[c]++
	}
	scale := make([]float32, a.Cols)
	for v, d := range indeg {
		if d != 0 {
			scale[v] = float32(1 / d)
		}
	}
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, ColScale: scale}
}

// NormalizeRowMean divides every row by its own entry count (or weight sum),
// so A*H computes the mean over out-going structure. This is the transposed
// view of NormalizeInDegree. Test support: the sampler tests' oracle of a
// block's mean aggregation.
func NormalizeRowMean(a *CSR) *CSR {
	out := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx}
	out.Vals = make([]float32, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		var sum float64
		if vals == nil {
			sum = float64(len(cols))
		} else {
			for _, v := range vals {
				sum += float64(v)
			}
		}
		if sum == 0 {
			continue
		}
		lo := a.RowPtr[i]
		for k := range cols {
			w := float64(1)
			if vals != nil {
				w = float64(vals[k])
			}
			out.Vals[lo+int64(k)] = float32(w / sum)
		}
	}
	return out
}
