package core

import (
	"fmt"
	"testing"

	"mggcn/internal/nn"
	"mggcn/internal/tensor"
)

// TestParallelReplayBitIdentical is the executor's correctness contract:
// replaying an epoch's recorded closures with many workers must produce
// exactly the weights the serial-issue path (ExecWorkers = 1) produces —
// bit for bit, across strategies and the overlap toggle. Any divergence
// means two closures raced on a buffer the ordering rules should separate.
func TestParallelReplayBitIdentical(t *testing.T) {
	g := testGraph(t)
	for _, strat := range []Strategy{Strategy1DRow, Strategy1DCol, Strategy15D} {
		for _, overlap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/overlap=%t", strat, overlap), func(t *testing.T) {
				run := func(p, execWorkers int) ([]*tensor.Dense, []float64) {
					cfg := testConfig(p)
					cfg.Strategy = strat
					cfg.Overlap = overlap
					cfg.ExecWorkers = execWorkers
					tr, err := NewTrainer(g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var losses []float64
					for e := 0; e < 3; e++ {
						losses = append(losses, mustEpoch(tr).Loss)
					}
					return tr.Weights(), losses
				}
				for _, p := range []int{4, 8} {
					serialW, serialL := run(p, 1)
					parW, parL := run(p, 8)
					for l := range serialW {
						if !tensor.Equal(serialW[l], parW[l], 0) {
							t.Fatalf("P=%d: layer %d weights differ between serial and 8-worker replay", p, l)
						}
					}
					for e := range serialL {
						if serialL[e] != parL[e] {
							t.Fatalf("P=%d: epoch %d loss %v (serial) vs %v (parallel)", p, e, serialL[e], parL[e])
						}
					}
				}
			})
		}
	}
}

// TestParallelReplayDefaultWorkers covers ExecWorkers <= 0 (GOMAXPROCS) and
// checks weight replicas stay identical across devices after parallel
// replay — the Adam closures run concurrently per device and must not
// interact.
func TestParallelReplayDefaultWorkers(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	cfg.ExecWorkers = 0
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		mustEpoch(tr)
	}
	for d := 1; d < cfg.P; d++ {
		for l := range tr.weights[d] {
			if !tensor.Equal(tr.weights[0][l], tr.weights[d][l], 0) {
				t.Fatalf("device %d layer %d weights diverged from device 0", d, l)
			}
		}
	}
}

// TestParallelForwardOnlyBitIdentical pins the replayed forward pass
// (ForwardOnly drives the correctness oracle) to the serial path.
func TestParallelForwardOnlyBitIdentical(t *testing.T) {
	g := testGraph(t)
	logits := func(execWorkers int) *tensor.Dense {
		cfg := testConfig(3)
		cfg.ExecWorkers = execWorkers
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mustForward(tr)
	}
	serial := logits(1)
	par := logits(8)
	if !tensor.Equal(serial, par, 0) {
		t.Fatal("ForwardOnly logits differ between serial and parallel replay")
	}
}

// TestGATParallelReplayBitIdentical extends the contract to the GAT
// forward pass: the attention tiles materialize inside score closures and
// feed the aggregation SpMMs across the executor's happens-before edges.
func TestGATParallelReplayBitIdentical(t *testing.T) {
	g := testGraph(t)
	logits := func(execWorkers int) *tensor.Dense {
		cfg := testConfig(4)
		cfg.ExecWorkers = execWorkers
		model := nn.NewGAT(g, nn.LayerDims(g.FeatDim, cfg.Hidden, cfg.Layers, g.Classes), cfg.Seed)
		d, err := NewGATDist(g, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := mustGATForward(d)
		return out
	}
	serial := logits(1)
	par := logits(8)
	if !tensor.Equal(serial, par, 0) {
		t.Fatal("GAT logits differ between serial and parallel replay")
	}
}

// TestLossStatsMatchSerialReplay checks the per-device loss slots fold to
// the same scalars at any parallelism.
func TestLossStatsMatchSerialReplay(t *testing.T) {
	g := testGraph(t)
	stats := func(execWorkers int) (loss, train, test float64) {
		cfg := testConfig(2)
		cfg.ExecWorkers = execWorkers
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := mustEpoch(tr)
		return s.Loss, s.TrainAcc, s.TestAcc
	}
	l1, tr1, te1 := stats(1)
	l8, tr8, te8 := stats(8)
	if l1 != l8 || tr1 != tr8 || te1 != te8 {
		t.Fatalf("stats differ: serial (%v %v %v) vs parallel (%v %v %v)", l1, tr1, te1, l8, tr8, te8)
	}
}
