package tensor

import (
	"fmt"

	"mggcn/internal/kernel"
)

// ReLU writes src into dst with every element <= 0 replaced by +0 (aliasing
// allowed; dst may be src itself). A NaN is not <= 0 and passes through, so a
// corrupted layer reaches the loss's numeric guard instead of training on.
// Shapes must match.
func ReLU(dst, src *Dense) {
	checkSameShape(dst, src, "ReLU")
	if dst.IsPhantom() || src.IsPhantom() {
		return
	}
	for i := 0; i < src.Rows; i++ {
		kernel.ReLU(dst.Row(i), src.Row(i))
	}
}

// ReLUBackward writes grad * 1[act > 0] into dst, where act is the
// post-activation output of the forward ReLU. dst may alias grad or act.
func ReLUBackward(dst, grad, act *Dense) {
	checkSameShape(dst, grad, "ReLUBackward")
	checkSameShape(dst, act, "ReLUBackward")
	if dst.IsPhantom() || grad.IsPhantom() || act.IsPhantom() {
		return
	}
	for i := 0; i < dst.Rows; i++ {
		kernel.ReLUMask(dst.Row(i), grad.Row(i), act.Row(i))
	}
}

// AddInPlace computes dst += src elementwise.
func AddInPlace(dst, src *Dense) {
	checkSameShape(dst, src, "AddInPlace")
	if dst.IsPhantom() || src.IsPhantom() {
		return
	}
	for i := 0; i < dst.Rows; i++ {
		kernel.Add(src.Row(i), dst.Row(i))
	}
}

// ScaleInPlace computes dst *= s elementwise.
func ScaleInPlace(dst *Dense, s float32) {
	if dst.IsPhantom() {
		return
	}
	for i := 0; i < dst.Rows; i++ {
		rd := dst.Row(i)
		for j := range rd {
			rd[j] *= s
		}
	}
}

func checkSameShape(a, b *Dense, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
