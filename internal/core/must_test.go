package core

import (
	"mggcn/internal/comm"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// Fault-free test helpers: epochs in the pre-existing correctness tests
// must not fail, so any error is a test-infrastructure bug and panics.
// Fault-path tests call RunEpoch/Train directly and assert on the error.

func mustEpoch(tr *Trainer) *EpochStats {
	s, err := tr.RunEpoch()
	if err != nil {
		panic(err)
	}
	return s
}

func mustTrain(tr *Trainer, epochs int) []*EpochStats {
	out, err := tr.Train(epochs)
	if err != nil {
		panic(err)
	}
	return out
}

func mustForward(tr *Trainer) *tensor.Dense {
	out, err := tr.ForwardOnly()
	if err != nil {
		panic(err)
	}
	return out
}

// ForwardOnly runs just the forward pass with real math and returns the
// logits in original vertex order — the hook the correctness tests use to
// compare against the sequential reference. A non-nil error is the
// replay's first task failure.
func (tr *Trainer) ForwardOnly() (*tensor.Dense, error) {
	if tr.phantom {
		panic("core: ForwardOnly in phantom mode")
	}
	_, err := tr.epoch(&tr.Cfg.execEnv, func(tg *sim.Graph, cg *comm.Group) func(*EpochStats) error {
		tr.recordForward(tg, cg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr.gatherLogits(), nil
}

// gatherLogits gathers the output-layer activations into one matrix in
// original vertex order (undoing the permutation). Only valid right after a
// forward pass with real math, before anything overwrites the logits.
func (tr *Trainer) gatherLogits() *tensor.Dense {
	dims := tr.Dims
	classes := dims[len(dims)-1]
	full := tensor.NewDense(tr.Graph.N(), classes)
	seen := make([]bool, tr.blocks)
	for _, ds := range tr.devs {
		if seen[ds.block] { // replicated blocks (1.5D) are identical
			continue
		}
		seen[ds.block] = true
		view := ds.bufs.AHW[len(dims)-2].View(ds.rows, classes)
		for r := 0; r < ds.rows; r++ {
			copy(full.Row(ds.lo+r), view.Row(r))
		}
	}
	return unpermuteRows(full, tr.perm)
}

// unpermuteRows maps a vector indexed by (possibly permuted) vertex back to
// original vertex order; with a nil permutation it copies.
func unpermuteRows(x *tensor.Dense, perm []int32) *tensor.Dense {
	if perm == nil {
		return x.Clone()
	}
	out := tensor.NewDense(x.Rows, x.Cols)
	for old := 0; old < x.Rows; old++ {
		copy(out.Row(old), x.Row(int(perm[old])))
	}
	return out
}
