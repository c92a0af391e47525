// Reddit scaling: the paper's headline experiment — full-batch GCN
// training on the (scaled) Reddit graph from 1 to 8 GPUs on both DGX
// machines, with the §5.2 permutation and §4.3 overlap ablations. Runs in
// phantom (structure-only) mode: the numbers are simulated epoch seconds
// at paper scale.
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
	fmt.Printf("reddit (1/%d scale): n=%d m=%d avg-degree=%.0f\n\n",
		ds.Scale(), ds.N(), ds.M(), ds.AvgDegree())

	for _, spec := range []mggcn.MachineSpec{mggcn.DGXV100(), mggcn.DGXA100()} {
		fmt.Printf("--- %s, 2 layers x 512 ---\n", spec.Name)
		fmt.Printf("%4s  %12s  %12s  %12s  %8s\n", "GPUs", "baseline(s)", "+permute(s)", "+overlap(s)", "speedup")
		var base1 float64
		for _, p := range []int{1, 2, 4, 8} {
			run := func(ord mggcn.Ordering, overlap bool) float64 {
				o := mggcn.DefaultOptions(spec, p)
				o.Ordering, o.Overlap = ord, overlap
				tr, err := mggcn.NewTrainer(ds, o)
				if err != nil {
					log.Fatal(err)
				}
				s, err := tr.RunEpoch()
				if err != nil {
					log.Fatal(err)
				}
				return s.EpochSeconds
			}
			orig := run(mggcn.OrderingNatural, false)
			perm := run(mggcn.OrderingRandom, false)
			full := run(mggcn.OrderingRandom, true)
			if p == 1 {
				base1 = full
			}
			fmt.Printf("%4d  %12.4f  %12.4f  %12.4f  %7.2fx\n", p, orig, perm, full, base1/full)
		}
		fmt.Println()
	}
}
