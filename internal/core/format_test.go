package core

import (
	"fmt"
	"testing"

	"mggcn/internal/tensor"
)

// TestSparseFormatBitIdentical is the format layer's correctness contract:
// training with SELL-C-σ tiles (or the per-tile auto chooser) must produce
// exactly the weights and losses CSR tiles produce — bit for bit, across
// all three distribution strategies. The SELL SpMM accumulates in the CSR
// kernels' order, so any divergence is a conversion or dispatch bug.
func TestSparseFormatBitIdentical(t *testing.T) {
	g := testGraph(t)
	for _, strat := range []Strategy{Strategy1DRow, Strategy1DCol, Strategy15D} {
		t.Run(fmt.Sprint(strat), func(t *testing.T) {
			run := func(format SparseFormat) ([]*tensor.Dense, []float64) {
				cfg := testConfig(4)
				cfg.Strategy = strat
				cfg.Format = format
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
			csrW, csrL := run(FormatCSR)
			for _, format := range []SparseFormat{FormatSELL, FormatAuto} {
				w, l := run(format)
				for i := range csrW {
					if !tensor.Equal(csrW[i], w[i], 0) {
						t.Fatalf("%v: layer %d weights differ from CSR", format, i)
					}
				}
				for e := range csrL {
					if csrL[e] != l[e] {
						t.Fatalf("%v: epoch %d loss %v vs CSR %v", format, e, l[e], csrL[e])
					}
				}
			}
		})
	}
}

// TestSparseFormatSellConverts checks FormatSELL actually installs SELL
// tiles (the parity test would pass vacuously if conversion silently
// produced nil) and that the adjacency charge reflects the SELL footprint.
func TestSparseFormatSellConverts(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	cfg.Format = FormatSELL
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sells, csrs int
	var sellBytes int64
	for _, ds := range tr.devs {
		for j := range ds.atTiles {
			if ds.atTiles[j] == nil {
				continue
			}
			if ds.atSell[j] == nil {
				csrs++
			} else {
				sells++
				sellBytes += ds.atSell[j].Bytes()
				if err := ds.atSell[j].Validate(); err != nil {
					t.Fatalf("device %d tile %d: %v", ds.id, j, err)
				}
			}
		}
	}
	if sells == 0 || csrs != 0 {
		t.Fatalf("FormatSELL: %d SELL tiles, %d CSR leftovers", sells, csrs)
	}
	if sellBytes == 0 {
		t.Fatalf("SELL tiles report zero bytes; memory accounting would miss them")
	}
}

// TestSparseFormatValidate rejects out-of-range format values.
func TestSparseFormatValidate(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(4)
	cfg.Format = SparseFormat(99)
	if _, err := NewTrainer(g, cfg); err == nil {
		t.Fatalf("NewTrainer accepted SparseFormat(99)")
	}
}
