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

func mustGATForward(d *GATDist) (*tensor.Dense, *EpochStats) {
	logits, stats, err := d.Forward()
	if err != nil {
		panic(err)
	}
	return logits, stats
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
	return tr.gatherLogits(tr.Dims), nil
}
