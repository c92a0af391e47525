package nn

import (
	"math"
	"math/rand"
	"testing"

	"mggcn/internal/tensor"
)

func TestGlorotRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := GlorotUniform(100, 50, rng)
	bound := math.Sqrt(6.0 / 150.0)
	var nonzero int
	for _, v := range w.Data {
		if math.Abs(float64(v)) > bound {
			t.Fatalf("weight %v outside Glorot bound %v", v, bound)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(w.Data)/2 {
		t.Fatalf("suspiciously many zero weights")
	}
}

func TestInitWeightsShapes(t *testing.T) {
	ws := InitWeights([]int{10, 8, 4}, 7)
	if len(ws) != 2 || ws[0].Rows != 10 || ws[0].Cols != 8 || ws[1].Rows != 8 || ws[1].Cols != 4 {
		t.Fatalf("bad weight shapes")
	}
}

func TestInitWeightsDeterministic(t *testing.T) {
	a := InitWeights([]int{5, 3}, 9)
	b := InitWeights([]int{5, 3}, 9)
	if !tensor.Equal(a[0], b[0], 0) {
		t.Fatalf("same seed produced different weights")
	}
	c := InitWeights([]int{5, 3}, 10)
	if tensor.Equal(a[0], c[0], 0) {
		t.Fatalf("different seeds produced identical weights")
	}
}

func TestLayerDims(t *testing.T) {
	got := LayerDims(602, 512, 2, 41)
	want := []int{602, 512, 41}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dims %v, want %v", got, want)
		}
	}
	got = LayerDims(128, 256, 3, 47)
	if len(got) != 4 || got[1] != 256 || got[2] != 256 {
		t.Fatalf("3-layer dims %v", got)
	}
	one := LayerDims(10, 99, 1, 4)
	if len(one) != 2 || one[0] != 10 || one[1] != 4 {
		t.Fatalf("1-layer dims %v", one)
	}
}

func TestLayerDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	LayerDims(10, 5, 0, 2)
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Two rows, two classes, uniform logits: loss = ln 2 per row.
	logits := tensor.NewDense(2, 2)
	grad := tensor.NewDense(2, 2)
	loss, n := SoftmaxCrossEntropy(logits, []int32{0, 1}, nil, grad)
	if n != 2 {
		t.Fatalf("count %d", n)
	}
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("loss %v, want ln2", loss)
	}
	// Gradient: (p - onehot)/n = (0.5-1)/2 = -0.25 at the label.
	if math.Abs(float64(grad.At(0, 0))+0.25) > 1e-6 || math.Abs(float64(grad.At(0, 1))-0.25) > 1e-6 {
		t.Fatalf("grad row 0: %v %v", grad.At(0, 0), grad.At(0, 1))
	}
}

func TestSoftmaxCrossEntropyMasked(t *testing.T) {
	logits := tensor.NewDense(3, 2)
	logits.Set(1, 0, 100) // masked-out row must not matter
	grad := tensor.NewDense(3, 2)
	mask := []bool{true, false, true}
	_, n := SoftmaxCrossEntropy(logits, []int32{0, 1, 1}, mask, grad)
	if n != 2 {
		t.Fatalf("count %d, want 2", n)
	}
	if grad.At(1, 0) != 0 || grad.At(1, 1) != 0 {
		t.Fatalf("masked row got gradient")
	}
}

func TestSoftmaxCrossEntropyEmptyMask(t *testing.T) {
	logits := tensor.NewDense(2, 2)
	grad := tensor.NewDense(2, 2)
	grad.Fill(9)
	loss, n := SoftmaxCrossEntropy(logits, []int32{0, 0}, []bool{false, false}, grad)
	if loss != 0 || n != 0 {
		t.Fatalf("empty mask: loss=%v n=%d", loss, n)
	}
	for _, v := range grad.Data {
		if v != 0 {
			t.Fatalf("empty-mask gradient not zeroed")
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.NewDense(1, 2)
	logits.Set(0, 0, 10000)
	logits.Set(0, 1, -10000)
	grad := tensor.NewDense(1, 2)
	loss, _ := SoftmaxCrossEntropy(logits, []int32{0}, nil, grad)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss %v", loss)
	}
	if loss > 1e-3 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
}

func TestSoftmaxGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := tensor.NewDense(4, 3)
	for i := range logits.Data {
		logits.Data[i] = float32(rng.NormFloat64())
	}
	labels := []int32{0, 2, 1, 1}
	grad := tensor.NewDense(4, 3)
	SoftmaxCrossEntropy(logits, labels, nil, grad)
	const h = 1e-3
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			orig := logits.At(i, j)
			tmp := tensor.NewDense(4, 3)
			logits.Set(i, j, orig+h)
			up, _ := SoftmaxCrossEntropy(logits, labels, nil, tmp)
			logits.Set(i, j, orig-h)
			down, _ := SoftmaxCrossEntropy(logits, labels, nil, tmp)
			logits.Set(i, j, orig)
			fd := (up - down) / (2 * h)
			if math.Abs(fd-float64(grad.At(i, j))) > 1e-3 {
				t.Fatalf("grad (%d,%d): analytic %v, fd %v", i, j, grad.At(i, j), fd)
			}
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.NewDense(3, 2)
	logits.Set(0, 1, 1) // predicts 1
	logits.Set(1, 0, 1) // predicts 0
	logits.Set(2, 1, 1) // predicts 1
	labels := []int32{1, 0, 0}
	if got := Accuracy(logits, labels, nil); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("accuracy %v", got)
	}
	if got := Accuracy(logits, labels, []bool{true, true, false}); got != 1 {
		t.Fatalf("masked accuracy %v", got)
	}
	if got := Accuracy(logits, labels, []bool{false, false, false}); got != 0 {
		t.Fatalf("empty-mask accuracy %v", got)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - target||^2 with Adam; gradient = 2(w - target).
	w := []*tensor.Dense{tensor.NewDense(2, 2)}
	target := float32(3)
	opt := NewAdam(0.1, w)
	for i := 0; i < 500; i++ {
		g := tensor.NewDense(2, 2)
		for j := range g.Data {
			g.Data[j] = 2 * (w[0].Data[j] - target)
		}
		opt.Step(w, []*tensor.Dense{g})
	}
	for _, v := range w[0].Data {
		if math.Abs(float64(v)-3) > 0.05 {
			t.Fatalf("Adam did not converge: %v", v)
		}
	}
	if opt.StepCount() != 500 {
		t.Fatalf("step count %d", opt.StepCount())
	}
}

func TestAdamDeterministicAcrossReplicas(t *testing.T) {
	// Two Adam instances fed identical gradients must produce identical
	// weights — the invariant that keeps replicated W in sync across GPUs.
	w1 := InitWeights([]int{4, 3}, 5)
	w2 := []*tensor.Dense{w1[0].Clone()}
	o1, o2 := NewAdam(0.01, w1), NewAdam(0.01, w2)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10; i++ {
		g := tensor.NewDense(4, 3)
		for j := range g.Data {
			g.Data[j] = float32(rng.NormFloat64())
		}
		o1.Step(w1, []*tensor.Dense{g})
		o2.Step(w2, []*tensor.Dense{g.Clone()})
	}
	if !tensor.Equal(w1[0], w2[0], 0) {
		t.Fatalf("replicated Adam diverged")
	}
}

func TestAdamMismatchPanics(t *testing.T) {
	w := InitWeights([]int{2, 2}, 1)
	opt := NewAdam(0.1, w)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	opt.Step(w, []*tensor.Dense{tensor.NewDense(3, 3)})
}
