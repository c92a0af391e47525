package memcheck_test

import (
	"testing"

	"mggcn/internal/core"
	"mggcn/internal/memcheck"
	"mggcn/internal/san"
	"mggcn/internal/sim"
)

// BenchmarkVerifySampledEpoch measures the static verifiers on the largest
// graph shape the repository records: one sampled epoch of many small
// batches (> 4000 tasks, the size of the benchmark's sampled-thin workload).
// The closure is n·⌈n/64⌉ words and every analysis queries the same one, so
// the three stages are timed separately: building it, san.Check over it,
// and memcheck.PeakLiveSlabs over it. ns/op and B/op per stage are the
// figures DESIGN.md §6 quotes.
func BenchmarkVerifySampledEpoch(b *testing.B) {
	cfg := core.DefaultSampledConfig(sim.DGXA100(), 4, 1)
	cfg.Hidden, cfg.Layers, cfg.Fanouts, cfg.Batch = 16, 2, []int{4, 6}, 6
	tr, err := core.NewSampledTrainer(crossGraph(3000, 99), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tr.RunEpoch(); err != nil {
		b.Fatal(err)
	}
	g := tr.LastGraph()
	if len(g.Tasks) < 4000 {
		b.Fatalf("recorded %d tasks, want >= 4000", len(g.Tasks))
	}
	hb := g.HappensBefore(sim.ExecutorEdges)

	stage := func(name string, fn func(b *testing.B)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
			b.ReportMetric(float64(len(g.Tasks)), "tasks")
		})
	}
	stage("closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hb = g.HappensBefore(sim.ExecutorEdges)
		}
	})
	stage("san.Check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if conflicts := san.Check(g, hb); len(conflicts) != 0 {
				b.Fatalf("sampled epoch has conflicts: %v", conflicts[0])
			}
		}
	})
	stage("PeakLiveSlabs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if live := memcheck.PeakLiveSlabs(g, hb); len(live.Count) != cfg.P {
				b.Fatalf("liveness covers %d devices, want %d", len(live.Count), cfg.P)
			}
		}
	})
}
