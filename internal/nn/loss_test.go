package nn

import (
	"math"
	"math/rand"
	"testing"

	"mggcn/internal/tensor"
)

// softmaxCrossEntropySumTwoExp is SoftmaxCrossEntropySum as it stood when it
// called math.Exp on every logit twice — once for the row sum, again for the
// gradient. Kept as the reference the one-exp body must match bit for bit.
func softmaxCrossEntropySumTwoExp(logits *tensor.Dense, labels []int32, mask []bool, grad *tensor.Dense, norm int) float64 {
	inv := 1 / float64(norm)
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
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - mx))
		}
		lbl := int(labels[i])
		logp := float64(row[lbl]-mx) - math.Log(sum)
		lossSum -= logp
		for j := range gr {
			p := math.Exp(float64(row[j]-mx)) / sum
			g := p
			if j == lbl {
				g -= 1
			}
			gr[j] = float32(g * inv)
		}
	}
	return lossSum
}

// TestSoftmaxCrossEntropySumMatchesTwoExpBody: keeping each row's
// exponentials between the sum and the gradient changes no bit of either —
// unmasked, with a 60 % mask, and with the gradient written over the logits.
func TestSoftmaxCrossEntropySumMatchesTwoExpBody(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const rows, classes = 200, 47
	logits := tensor.NewDense(rows, classes)
	for i := range logits.Data {
		logits.Data[i] = float32(4 * rng.NormFloat64())
	}
	labels := make([]int32, rows)
	mask := make([]bool, rows)
	for i := range labels {
		labels[i] = int32(rng.Intn(classes))
		mask[i] = rng.Float64() < 0.6
	}
	for name, m := range map[string][]bool{"unmasked": nil, "masked": mask} {
		for _, alias := range []bool{false, true} {
			in, inRef := logits.Clone(), logits.Clone()
			grad, gradRef := tensor.NewDense(rows, classes), tensor.NewDense(rows, classes)
			if alias {
				grad, gradRef = in, inRef
			}
			got := SoftmaxCrossEntropySum(in, labels, m, grad, 123)
			want := softmaxCrossEntropySumTwoExp(inRef, labels, m, gradRef, 123)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s alias=%v: loss %v, two-exp body %v", name, alias, got, want)
			}
			for i := range grad.Data {
				if math.Float32bits(grad.Data[i]) != math.Float32bits(gradRef.Data[i]) {
					t.Fatalf("%s alias=%v: grad[%d] = %v, two-exp body %v", name, alias, i, grad.Data[i], gradRef.Data[i])
				}
			}
		}
	}
}

func BenchmarkSoftmaxCrossEntropySum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, classes = 10000, 47
	logits, grad := tensor.NewDense(rows, classes), tensor.NewDense(rows, classes)
	for i := range logits.Data {
		logits.Data[i] = float32(rng.NormFloat64())
	}
	labels := make([]int32, rows)
	mask := make([]bool, rows)
	for i := range labels {
		labels[i] = int32(rng.Intn(classes))
		mask[i] = rng.Float64() < 0.6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxCrossEntropySum(logits, labels, mask, grad, rows)
	}
}
