// Quickstart: train a 2-layer GCN on a small synthetic citation-style
// graph across 4 simulated GPUs, printing its loss, train and held-out
// accuracy and simulated epoch time every ten epochs.
package main

import (
	"fmt"
	"log"

	"mggcn"
)

func main() {
	// A Cora-scale dataset: 2,000 vertices, average degree 16, 32-wide
	// noisy class features, 8 classes.
	ds := mggcn.SynthesizeDataset("quickstart", 2000, 16, 32, 8, 7, false)
	fmt.Printf("dataset: n=%d m=%d avg-degree=%.1f\n", ds.N(), ds.M(), ds.AvgDegree())

	opts := mggcn.DefaultOptions(mggcn.DGXA100(), 4)
	opts.Hidden = 64
	opts.Layers = 2
	tr, err := mggcn.NewTrainer(ds, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buffers per device: %d (L+3 with L=%d)\n", tr.BufferCount(), opts.Layers)

	stats, err := tr.Train(50)
	if err != nil {
		log.Fatal(err)
	}
	for e := 0; e < len(stats); e += 10 {
		s := stats[e]
		fmt.Printf("epoch %2d: loss=%.4f train-acc=%.3f test-acc=%.3f sim-epoch=%.2fms\n",
			e+1, s.Loss, s.TrainAcc, s.TestAcc, s.EpochSeconds*1e3)
	}
	last := stats[len(stats)-1]
	fmt.Printf("final:    loss=%.4f train-acc=%.3f test-acc=%.3f\n", last.Loss, last.TrainAcc, last.TestAcc)
}
