// Memory budget: Fig 12's experiment through the public API — how many GCN
// layers MG-GCN's L+3 shared-buffer scheme fits per GPU memory budget on the
// Reddit graph (hidden 512), on 1 and 8 GPUs. `mggcn-bench -exp fig12` adds
// the DGL and CAGNET columns. Also demonstrates OOM reporting.
package main

import (
	"fmt"
	"log"

	"mggcn"
)

func main() {
	ds, err := mggcn.LoadDataset("reddit", true)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("max layers within a per-GPU budget (Reddit, hidden 512):")
	fmt.Printf("%8s  %12s  %12s\n", "budget", "MG-GCN/1GPU", "MG-GCN/8GPU")
	for _, gib := range []int64{4, 8, 16, 30} {
		budget := gib << 30
		fits := func(p, layers int) bool {
			o := mggcn.DefaultOptions(mggcn.DGXV100(), p)
			o.Layers = layers
			bytes, err := mggcn.EstimateMemoryBytesPerDevice(ds, o)
			if err != nil {
				log.Fatal(err)
			}
			return bytes <= budget
		}
		max := func(p int) int {
			l := 0
			for fits(p, l+1) {
				l++
			}
			return l
		}
		fmt.Printf("%5d GiB %12d  %12d\n", gib, max(1), max(8))
	}

	// OOM is a first-class outcome: full-scale Papers cannot fit one A100.
	papers, err := mggcn.LoadDataset("papers", true)
	if err != nil {
		log.Fatal(err)
	}
	o := mggcn.DefaultOptions(mggcn.DGXA100(), 1)
	o.Hidden, o.Layers = 208, 3
	if _, err := mggcn.NewTrainer(papers, o); mggcn.IsOOM(err) {
		fmt.Printf("\npapers on 1x A100: %v\n", err)
	}
	o.GPUs = 8
	if tr, err := mggcn.NewTrainer(papers, o); err == nil {
		s, err := tr.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("papers on 8x A100: fits, simulated epoch %.2fs (paper: 2.89s)\n",
			s.EpochSeconds)
	}
}
