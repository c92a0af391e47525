package nn

import (
	"math"

	"mggcn/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba) over a stack of weight
// matrices, with bias correction. One Adam instance owns the full state;
// in the distributed trainer every device holds a replica and applies
// identical updates after the gradient all-reduce, keeping weights bitwise
// in sync.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	step int
	m, v []*tensor.Dense
}

// NewAdam creates an optimizer with the usual defaults
// (beta1=0.9, beta2=0.999, eps=1e-8) for the given weight shapes.
func NewAdam(lr float64, weights []*tensor.Dense) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	for _, w := range weights {
		a.m = append(a.m, tensor.NewDense(w.Rows, w.Cols))
		a.v = append(a.v, tensor.NewDense(w.Rows, w.Cols))
	}
	return a
}

// Step applies one Adam update: weights[i] -= lr * mhat/(sqrt(vhat)+eps).
func (a *Adam) Step(weights, grads []*tensor.Dense) {
	if len(weights) != len(a.m) || len(grads) != len(a.m) {
		panic("nn: Adam step with mismatched parameter count")
	}
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for l, w := range weights {
		g := grads[l]
		if w.Rows != g.Rows || w.Cols != g.Cols {
			panic("nn: Adam gradient shape mismatch")
		}
		m, v := a.m[l], a.v[l]
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		for i := range w.Data {
			gi := g.Data[i]
			m.Data[i] = b1*m.Data[i] + (1-b1)*gi
			v.Data[i] = b2*v.Data[i] + (1-b2)*gi*gi
			mhat := float64(m.Data[i]) / c1
			vhat := float64(v.Data[i]) / c2
			w.Data[i] -= float32(a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon))
		}
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam) StepCount() int { return a.step }

// SetStep overrides the update counter — the elastic trainer's replica
// resync aligns survivor step counts after broadcasting the moments.
func (a *Adam) SetStep(step int) { a.step = step }

// State exposes the optimizer's internals for checkpointing: the step
// count and the first/second moment estimates (aliases, not copies).
func (a *Adam) State() (step int, m, v []*tensor.Dense) { return a.step, a.m, a.v }

// SetState restores a checkpointed optimizer state. Moment shapes must
// match the weights the optimizer was built for.
func (a *Adam) SetState(step int, m, v []*tensor.Dense) {
	if len(m) != len(a.m) || len(v) != len(a.v) {
		panic("nn: Adam state length mismatch")
	}
	for l := range m {
		a.m[l].CopyFrom(m[l])
		a.v[l].CopyFrom(v[l])
	}
	a.step = step
}
