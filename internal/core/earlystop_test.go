package core

import "testing"

// TestSampledEarlyStopping: with validation vertices and a patience, Train
// and TrainSampledElastic run the same tracker — they stop at the same epoch
// with bit-identical loss and ValAcc curves, before the epoch budget, and
// the last returned epoch (the one early stopping ended on) still carries
// its task/schedule payload while every earlier one dropped it.
func TestSampledEarlyStopping(t *testing.T) {
	g := testGraph(t)
	const budget = 40
	for _, patience := range []int{1, 2} {
		cfg := testSampledConfig(2)
		cfg.EarlyStopPatience = patience
		tr, err := NewSampledTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.valVerts) == 0 {
			t.Fatal("test graph has no validation vertices")
		}
		plain, err := tr.Train(budget)
		if err != nil {
			t.Fatal(err)
		}
		res, err := TrainSampledElastic(g, cfg, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) >= budget {
			t.Fatalf("patience %d: ran all %d epochs, early stopping never fired", patience, budget)
		}
		if len(res.Stats) != len(plain) {
			t.Fatalf("patience %d: elastic stopped after %d epochs, Train after %d", patience, len(res.Stats), len(plain))
		}
		// The stop rule itself: the last `patience` epochs did not beat the
		// best validation accuracy before them.
		best := plain[0].ValAcc
		for _, s := range plain[:len(plain)-patience] {
			best = max(best, s.ValAcc)
		}
		for _, s := range plain[len(plain)-patience:] {
			if s.ValAcc > best {
				t.Fatalf("patience %d: stopped although ValAcc %v beat the best %v", patience, s.ValAcc, best)
			}
		}
		for name, stats := range map[string][]*SampledEpochStats{"Train": plain, "TrainSampledElastic": res.Stats} {
			for e, s := range stats {
				if s.Loss != plain[e].Loss || s.ValAcc != plain[e].ValAcc {
					t.Fatalf("patience %d %s epoch %d: loss/val %v/%v, want %v/%v",
						patience, name, e, s.Loss, s.ValAcc, plain[e].Loss, plain[e].ValAcc)
				}
				last := e == len(stats)-1
				if has := s.Tasks != nil && s.Sched != nil; has != last {
					t.Fatalf("patience %d %s epoch %d of %d: has timeline payload = %v, want %v",
						patience, name, e, len(stats), has, last)
				}
			}
		}
	}
}
