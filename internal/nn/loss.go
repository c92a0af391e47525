package nn

import (
	"math"

	"mggcn/internal/tensor"
)

// SoftmaxCrossEntropy computes the masked mean softmax cross-entropy loss
// over the rows of logits selected by mask (nil mask = every row), and
// writes the gradient with respect to the logits into grad (which may alias
// logits). labels[i] is row i's class. maskCount rows contribute; rows
// outside the mask receive zero gradient. Returns (loss, maskCount).
//
// The gradient is normalized by maskCount, matching the paper's full-batch
// objective: mean over training vertices.
func SoftmaxCrossEntropy(logits *tensor.Dense, labels []int32, mask []bool, grad *tensor.Dense) (float64, int) {
	count := MaskCount(mask, logits.Rows)
	if count == 0 {
		grad.Zero()
		return 0, 0
	}
	sum := SoftmaxCrossEntropySum(logits, labels, mask, grad, count)
	return sum / float64(count), count
}

// MaskCount returns the number of selected rows (nil mask selects all n).
func MaskCount(mask []bool, n int) int {
	if mask == nil {
		return n
	}
	count := 0
	for _, m := range mask {
		if m {
			count++
		}
	}
	return count
}

// SoftmaxCrossEntropySum is the distributed building block: it computes the
// *sum* of per-row losses over the mask-selected rows of this shard while
// scaling the gradient by 1/norm, where norm is the GLOBAL training-vertex
// count. Each device calls it on its local block; summing the returned
// values and dividing by norm yields the same loss and gradients as one
// global SoftmaxCrossEntropy call.
func SoftmaxCrossEntropySum(logits *tensor.Dense, labels []int32, mask []bool, grad *tensor.Dense, norm int) float64 {
	if len(labels) != logits.Rows {
		panic("nn: label count mismatch")
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic("nn: gradient shape mismatch")
	}
	if mask != nil && len(mask) != logits.Rows {
		panic("nn: mask length mismatch")
	}
	if norm <= 0 {
		panic("nn: norm must be positive")
	}
	inv := 1 / float64(norm)
	// One row's exponentials, computed once for the row sum and read again
	// for the gradient — in float64, so both are the bits two calls gave.
	exps := make([]float64, logits.Cols)
	var lossSum float64
	for i := 0; i < logits.Rows; i++ {
		gr := grad.Row(i)
		if mask != nil && !mask[i] {
			for j := range gr {
				gr[j] = 0
			}
			continue
		}
		row := logits.Row(i)
		// Numerically stable softmax: subtract the row max.
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		sum := rowExps(exps, row, mx)
		lbl := int(labels[i])
		logp := float64(row[lbl]-mx) - math.Log(sum)
		lossSum -= logp
		for j := range gr {
			g := exps[j] / sum
			if j == lbl {
				g -= 1
			}
			gr[j] = float32(g * inv)
		}
	}
	return lossSum
}

// rowExps sets exps[j] = exp(row[j] - mx) and returns their sum, in order.
// It is a function of its own so that the math.Exp call spills and reloads
// only this loop's few values, not the whole loss loop's.
func rowExps(exps []float64, row []float32, mx float32) float64 {
	var sum float64
	for j, v := range row {
		exps[j] = math.Exp(float64(v - mx))
		sum += exps[j]
	}
	return sum
}

// Accuracy returns the fraction of mask-selected rows whose argmax matches
// the label (nil mask = all rows).
func Accuracy(logits *tensor.Dense, labels []int32, mask []bool) float64 {
	correct, total := CorrectCount(logits, labels, mask)
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// CorrectCount returns (correct, selected) row counts — the exact integers
// each device contributes to a distributed accuracy computation.
func CorrectCount(logits *tensor.Dense, labels []int32, mask []bool) (correct, total int) {
	for i := 0; i < logits.Rows; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		total++
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if int32(best) == labels[i] {
			correct++
		}
	}
	return correct, total
}
