package nn

import (
	"math"
	"sync"

	"mggcn/internal/kernel"
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
	sum, _, _ := SoftmaxCrossEntropySum(logits, labels, mask, nil, grad, count)
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

// expRows lends each loss call one row of exponentials.
var expRows = sync.Pool{New: func() any { return new([]float64) }}

// SoftmaxCrossEntropySum is the distributed building block: it computes the
// *sum* of per-row losses over the mask-selected rows of this shard while
// scaling the gradient by 1/norm, where norm is the GLOBAL training-vertex
// count. Each device calls it on its local block; summing the returned
// values and dividing by norm yields the same loss and gradients as one
// global SoftmaxCrossEntropy call. It also counts the rows of mask and of
// testMask (nil: none) whose argmax is their label, CorrectCount's integers,
// from the logits as they were before grad overwrote them.
func SoftmaxCrossEntropySum(logits *tensor.Dense, labels []int32, mask, testMask []bool, grad *tensor.Dense, norm int) (loss float64, correct, testCorrect int) {
	if len(labels) != logits.Rows {
		panic("nn: label count mismatch")
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic("nn: gradient shape mismatch")
	}
	if (mask != nil && len(mask) != logits.Rows) || (testMask != nil && len(testMask) != logits.Rows) {
		panic("nn: mask length mismatch")
	}
	if norm <= 0 {
		panic("nn: norm must be positive")
	}
	inv := 1 / float64(norm)
	// One row's exponentials, computed once for the row sum and read again
	// for the gradient — in float64, so both are the bits two calls gave.
	buf := expRows.Get().(*[]float64)
	defer expRows.Put(buf)
	if cap(*buf) < logits.Cols {
		*buf = make([]float64, logits.Cols)
	}
	exps := (*buf)[:logits.Cols]
	for i := 0; i < logits.Rows; i++ {
		row, gr, lbl := logits.Row(i), grad.Row(i), int(labels[i])
		test := testMask != nil && testMask[i]
		if mask != nil && !mask[i] {
			if test && argmax(row) == lbl {
				testCorrect++
			}
			clear(gr)
			continue
		}
		// Numerically stable softmax: subtract the row max, found with its
		// argmax (mx is always row[best], so best is argmax's).
		best, mx := 0, row[0]
		for j, v := range row {
			if v > mx {
				best, mx = j, v
			}
		}
		if best == lbl {
			correct++
			if test {
				testCorrect++
			}
		}
		x := row[lbl] // before an aliased gradient overwrites it
		sum := kernel.ExpRow(exps, row, mx)
		loss -= float64(x-mx) - math.Log(sum)
		kernel.NormRow(gr, exps, sum, inv)
		gr[lbl] = float32((exps[lbl]/sum - 1) * inv)
	}
	return loss, correct, testCorrect
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
		if argmax(logits.Row(i)) == int(labels[i]) {
			correct++
		}
	}
	return correct, total
}

// argmax is the index the strict > chain over row ends on: the first of its
// largest values.
func argmax(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}
