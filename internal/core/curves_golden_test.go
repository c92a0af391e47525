package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"mggcn/internal/fault"
	"mggcn/internal/gen"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
)

// bits prints a float64 as its IEEE-754 bit pattern: the golden compares
// exactly, not to a tolerance.
func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// eventLog is an elastic run's recovery log reduced to what a refactor must
// not move: each event's kind and the group size it left behind.
func eventLog(events []RecoveryEvent) string {
	var parts []string
	for _, ev := range events {
		parts = append(parts, fmt.Sprintf("%s@p%d", ev.Kind, ev.P))
	}
	return strings.Join(parts, ",")
}

// TestTrainingCurvesGolden pins what the trainers *compute* against
// constants, where graphs.golden pins what they record and every parity test
// compares one replay mode with another: per-epoch loss and accuracy bits of
// each full-batch strategy, the GAT logits, the sampled trainer's stats
// (validation, batch count, overlap ratio, a RunSteps segment and its
// cursor) and the event sequence and final loss of one faulted elastic run
// per trainer. A reordering of replay, fold, guard, commit and schedule that
// moved every replay mode alike would pass those tests and fail here.
// `go test ./internal/core -run TrainingCurvesGolden -update` rewrites the
// file when a number is meant to change.
func TestTrainingCurvesGolden(t *testing.T) {
	g := gen.Generate("graphs-golden", goldenBTER, 12, 4, false)
	onOff := map[bool]string{true: "on", false: "off"}

	// overlap collects the second block: the full-batch and GAT OverlapRatio
	// bits, a field those epochs gained with the one stats type.
	var out, overlap bytes.Buffer
	out.WriteString("# full-batch: per epoch Loss, TrainAcc, TestAcc\n")
	for _, st := range []Strategy{Strategy1DRow, Strategy1DCol, Strategy15D} {
		for _, p := range []int{st.replicationFactor(), 4} {
			cfg := DefaultConfig(sim.DGXA100(), p, 1)
			cfg.Hidden, cfg.Strategy = 16, st
			tr, err := NewTrainer(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for e, s := range mustTrain(tr, 3) {
				fmt.Fprintf(&out, "%s/p%d e%d loss=%s train=%s test=%s\n", st, p, e, bits(s.Loss), bits(s.TrainAcc), bits(s.TestAcc))
				fmt.Fprintf(&overlap, "%s/p%d e%d overlap=%s\n", st, p, e, bits(s.OverlapRatio))
			}
		}
	}

	out.WriteString("# gat: SHA-256 of the forward logits' float32 bits\n")
	for _, p := range []int{1, 4} {
		cfg := DefaultConfig(sim.DGXA100(), p, 1)
		cfg.Hidden = 16
		model := nn.NewGAT(g, nn.LayerDims(g.FeatDim, cfg.Hidden, 2, g.Classes), 3)
		dist, err := NewGATDist(g, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		logits, stats := mustGATForward(dist)
		fmt.Fprintf(&overlap, "gat/p%d overlap=%s\n", p, bits(stats.OverlapRatio))
		h := sha256.New()
		if err := binary.Write(h, binary.LittleEndian, logits.Data); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "gat/p%d logits_sha=%x\n", p, h.Sum(nil))
	}

	out.WriteString("# sampled: per epoch Loss, TrainAcc, ValAcc, Batches, OverlapRatio; then one RunSteps(1) segment\n")
	for _, pipeline := range []bool{true, false} {
		cfg := testSampledConfig(4)
		cfg.Pipeline, cfg.TrackVal = pipeline, true
		tr, err := NewSampledTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := "sampled/p4/pipeline-" + onOff[pipeline]
		line := func(tag string, s *SampledEpochStats) {
			fmt.Fprintf(&out, "%s %s loss=%s train=%s val=%s batches=%d overlap=%s cursor=%d,%d\n", name, tag,
				bits(s.Loss), bits(s.TrainAcc), bits(s.ValAcc), s.Batches, bits(s.OverlapRatio), tr.cursor.Epoch, tr.cursor.NextBatch)
		}
		for e := 0; e < 2; e++ {
			s, err := tr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			line(fmt.Sprintf("e%d", e), s)
		}
		s, err := tr.RunSteps(1)
		if err != nil {
			t.Fatal(err)
		}
		line("step", s)
	}

	// One faulted run per trainer: a NaN poisons a forward GeMM in the first
	// epoch (restore and re-run), then device 2 dies in a later one (resync,
	// rebuild at P-1, re-run). The crash filters name one stream of one
	// device, whose tasks replay in FIFO order, so the task that dies — and
	// with it the whole run — is the same at any replay parallelism.
	out.WriteString("# elastic: recovery events kind@P and the last epoch's loss\n")
	full := fault.New(fault.Plan{Seed: 9,
		Poison: &fault.PoisonSpec{Label: "fwd1/gemm", Stage: -1, Device: 0, Occurrence: 1},
		Crash:  &fault.CrashSpec{Device: 2, OnLabel: "bwd", After: 7, Kind: fault.OnKind(sim.KindGeMM)},
	})
	fcfg := faultConfig(4, full)
	res, err := TrainElastic(g, fcfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "elastic/full events=%s final_p=%d epochs=%d loss=%s\n",
		eventLog(res.Events), res.FinalP, len(res.Stats), bits(res.Stats[len(res.Stats)-1].Loss))

	sampled := fault.New(fault.Plan{Seed: 9,
		Poison: &fault.PoisonSpec{Label: "s0/fwd1/gemm", Stage: -1, Device: 0, Occurrence: 1, Kind: fault.OnKind(sim.KindGeMM)},
		Crash:  &fault.CrashSpec{Device: 2, OnLabel: "sample", After: 7, Stream: fault.OnStream(sim.StreamSample)},
	})
	sres, err := TrainSampledElastic(g, sampledFaultConfig(4, sampled), 3)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "elastic/sampled events=%s final_p=%d epochs=%d loss=%s\n",
		eventLog(sres.Events), sres.FinalP, len(sres.Stats), bits(sres.Stats[len(sres.Stats)-1].Loss))

	out.WriteString("# full-batch and gat OverlapRatio: mean busy streams per device (the one stats type fills it for every epoch)\n")
	out.Write(overlap.Bytes())
	checkGolden(t, "testdata/curves.golden", out.Bytes())
}
