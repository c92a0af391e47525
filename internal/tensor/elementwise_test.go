package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReLUClampsNegatives(t *testing.T) {
	src := NewDense(1, 4)
	copy(src.Data, []float32{-2, 0, 3, -0.5})
	dst := NewDense(1, 4)
	ReLU(dst, src)
	want := []float32{0, 0, 3, 0}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("dst[%d]=%v, want %v", i, dst.Data[i], w)
		}
	}
}

func TestReLUInPlaceAliasing(t *testing.T) {
	d := NewDense(2, 2)
	copy(d.Data, []float32{-1, 2, -3, 4})
	ReLU(d, d)
	want := []float32{0, 2, 0, 4}
	for i, w := range want {
		if d.Data[i] != w {
			t.Fatalf("d[%d]=%v, want %v", i, d.Data[i], w)
		}
	}
}

func TestReLUBackwardMasksByActivation(t *testing.T) {
	grad := NewDense(1, 4)
	copy(grad.Data, []float32{10, 20, 30, 40})
	act := NewDense(1, 4)
	copy(act.Data, []float32{0, 1, 0, 2}) // post-ReLU outputs
	dst := NewDense(1, 4)
	ReLUBackward(dst, grad, act)
	want := []float32{0, 20, 0, 40}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("dst[%d]=%v, want %v", i, dst.Data[i], w)
		}
	}
}

func TestReLUForwardBackwardConsistency(t *testing.T) {
	// Property: gradient passes exactly where forward output is positive.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomDense(rng, 5, 5)
		y := NewDense(5, 5)
		ReLU(y, x)
		g := randomDense(rng, 5, 5)
		dx := NewDense(5, 5)
		ReLUBackward(dx, g, y)
		for i := range dx.Data {
			want := float32(0)
			if x.Data[i] > 0 {
				want = g.Data[i]
			}
			if dx.Data[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAddInPlace(t *testing.T) {
	a := NewDense(2, 2)
	a.Fill(1)
	b := NewDense(2, 2)
	b.Fill(2.5)
	AddInPlace(a, b)
	for i := range a.Data {
		if a.Data[i] != 3.5 {
			t.Fatalf("a[%d]=%v", i, a.Data[i])
		}
	}
}

func TestScaleInPlace(t *testing.T) {
	a := NewDense(2, 3)
	a.Fill(4)
	ScaleInPlace(a, 0.25)
	for i := range a.Data {
		if a.Data[i] != 1 {
			t.Fatalf("a[%d]=%v", i, a.Data[i])
		}
	}
}

func TestElementwiseShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	AddInPlace(NewDense(2, 2), NewDense(2, 3))
}

func TestElementwisePhantomNoOps(t *testing.T) {
	ReLU(NewPhantom(2, 2), NewPhantom(2, 2))
	ReLUBackward(NewPhantom(2, 2), NewPhantom(2, 2), NewPhantom(2, 2))
	AddInPlace(NewPhantom(2, 2), NewPhantom(2, 2))
	ScaleInPlace(NewPhantom(2, 2), 3)
}
