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
// unmasked, with a 60 % mask, and with the gradient written over the logits
// — and the one pass counts what CorrectCount counts on the logits it read,
// for the mask and for a test mask that overlaps it.
func TestSoftmaxCrossEntropySumMatchesTwoExpBody(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const rows, classes = 200, 47
	logits := tensor.NewDense(rows, classes)
	for i := range logits.Data {
		logits.Data[i] = float32(4 * rng.NormFloat64())
	}
	labels := make([]int32, rows)
	mask, testMask := make([]bool, rows), make([]bool, rows)
	for i := range labels {
		labels[i] = int32(rng.Intn(classes))
		mask[i] = rng.Float64() < 0.6
		testMask[i] = rng.Float64() < 0.3
		if i%3 == 0 { // a correct row, so the counts are not all zero
			logits.Row(i)[labels[i]] = 20
		}
	}
	for name, m := range map[string][]bool{"unmasked": nil, "masked": mask} {
		for _, alias := range []bool{false, true} {
			in, inRef := logits.Clone(), logits.Clone()
			grad, gradRef := tensor.NewDense(rows, classes), tensor.NewDense(rows, classes)
			if alias {
				grad, gradRef = in, inRef
			}
			wantCorrect, _ := CorrectCount(logits, labels, m)
			wantTest, _ := CorrectCount(logits, labels, testMask)
			got, correct, testCorrect := SoftmaxCrossEntropySum(in, labels, m, testMask, grad, 123)
			want := softmaxCrossEntropySumTwoExp(inRef, labels, m, gradRef, 123)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s alias=%v: loss %v, two-exp body %v", name, alias, got, want)
			}
			if correct != wantCorrect || testCorrect != wantTest || wantCorrect == 0 {
				t.Fatalf("%s alias=%v: correct %d and %d on the test mask, CorrectCount %d and %d", name, alias, correct, testCorrect, wantCorrect, wantTest)
			}
			for i := range grad.Data {
				if math.Float32bits(grad.Data[i]) != math.Float32bits(gradRef.Data[i]) {
					t.Fatalf("%s alias=%v: grad[%d] = %v, two-exp body %v", name, alias, i, grad.Data[i], gradRef.Data[i])
				}
			}
		}
	}
}

// BenchmarkSoftmaxCrossEntropySum times the loss at the two shapes the
// benchmark workloads run it at: fullbatch-gemm's device shard (40000
// vertices over four devices, 47 classes, its 60 % train and 20 % test
// masks) and sampled-thin's batch (256 rows, no mask).
func BenchmarkSoftmaxCrossEntropySum(b *testing.B) {
	for _, bc := range []struct {
		name   string
		rows   int
		masked bool
	}{{"fullbatch-gemm", 10000, true}, {"sampled-thin", 256, false}} {
		b.Run(bc.name, func(b *testing.B) {
			const classes = 47
			rng := rand.New(rand.NewSource(1))
			logits, grad := tensor.NewDense(bc.rows, classes), tensor.NewDense(bc.rows, classes)
			for i := range logits.Data {
				logits.Data[i] = float32(rng.NormFloat64())
			}
			labels := make([]int32, bc.rows)
			var mask, testMask []bool
			if bc.masked {
				mask, testMask = make([]bool, bc.rows), make([]bool, bc.rows)
			}
			for i := range labels {
				labels[i] = int32(rng.Intn(classes))
				if u := rng.Float64(); bc.masked {
					mask[i], testMask[i] = u < 0.6, u >= 0.8
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SoftmaxCrossEntropySum(logits, labels, mask, testMask, grad, bc.rows)
			}
		})
	}
}
