package schedcheck

import (
	"fmt"

	"mggcn/internal/sim"
)

// Model is what a closed form is evaluated at: the total vertex count N,
// the device count P, the dataset scale S, the layer widths F0..FL, and the
// trainer options that change which collectives are issued. Partition
// unevenness cancels in every shipped form — the per-block row counts always
// sum to N — which is why the forms need no per-block extents.
type Model struct {
	N, P, S           int
	Dims              []int // layer widths F0..FL
	OrderSwitch       bool
	SkipFirstBackward bool
}

// AnnotatedWords sums the graph's collective annotations per operation —
// the volume the recorded schedule claims to move. Unannotated comm tasks
// contribute nothing (CheckCollectives flags them separately).
func AnnotatedWords(g *sim.Graph) map[sim.CollOp]int64 {
	out := make(map[sim.CollOp]int64)
	for _, t := range g.Tasks {
		if t.Kind == sim.KindComm && t.Coll != nil {
			out[t.Coll.Op] += t.Coll.Words()
		}
	}
	return out
}

// CertifyVolume proves the schedule's annotated communication volume equals
// want, the closed form VolumeForm gives under m, per collective class, with
// exact integer equality. A mismatch in either direction — schedule moves
// words the form does not predict, or the form predicts volume the schedule
// never issues — is a finding naming the class, both values, and the inputs
// the form was evaluated at.
func CertifyVolume(g *sim.Graph, want map[sim.CollOp]int64, m Model) []Finding {
	var out []Finding
	got := AnnotatedWords(g)
	for _, op := range sim.CollOps() {
		if got[op] != want[op] {
			out = append(out, Finding{Check: "cost", Task: -1,
				Msg: fmt.Sprintf("%s volume: schedule moves %d words, closed form gives %d at N=%d P=%d S=%d dims %v",
					op, got[op], want[op], m.N, m.P, m.S, m.Dims)})
		}
	}
	return out
}

// ---- Shipped closed forms ------------------------------------------------
//
// Notation: every distributed SpMM over width w moves N·w rows of full-scale
// features (Σ_j rows_j = N regardless of partition balance), and the weight
// all-reduce is unscaled (gradients are model-sized, not dataset-sized).
// Derivations in DESIGN.md §6.3.

// spmmWidths sums the dense widths of every distributed SpMM one epoch of
// the Trainer issues under model m: forward per layer (the §4.4 order switch
// picks min(F_l, F_{l+1})), backward per layer at F_{l+1} except layer 0
// when the §4.4 skip applies.
func spmmWidths(m Model) int64 {
	var sum int64
	for l := 0; l+1 < len(m.Dims); l++ {
		fwd := m.Dims[l+1]
		if m.OrderSwitch {
			fwd = min(m.Dims[l], fwd)
		}
		sum += int64(fwd)
		if l > 0 || !m.SkipFirstBackward {
			sum += int64(m.Dims[l+1])
		}
	}
	return sum
}

// weights is Σ_l F_l·F_{l+1}, the model's weight count.
func weights(m Model) int64 {
	var sum int64
	for l := 0; l+1 < len(m.Dims); l++ {
		sum += int64(m.Dims[l]) * int64(m.Dims[l+1])
	}
	return sum
}

// VolumeForm evaluates the closed form of the named strategy under m: the
// three full-batch SpMM strategies (core.Strategy.Name) or the GAT forward.
// A new strategy is a new case here beside its row in core's strategy table
// — the CAGNET-style analysis lives with the form, the checker stays
// generic. The CAGNET baseline records through 1D-row with OrderSwitch on
// and SkipFirstBackward off, and is certified by that form.
func VolumeForm(strategy string, m Model) (map[sim.CollOp]int64, error) {
	NS := int64(m.N) * int64(m.S)
	pm1 := int64(m.P - 1)
	// One unscaled gradient all-reduce per layer, issued by the Trainer
	// under every strategy: 2·(P-1)·Σ_l F_l·F_{l+1}.
	weightAllReduce := 2 * pm1 * weights(m)
	L := int64(len(m.Dims) - 1)
	switch strategy {
	case "1d-row":
		return broadcastStaged(m, 1, weightAllReduce)
	case "1.5d":
		return broadcastStaged(m, 2, weightAllReduce)
	case "1d-col":
		// §4.1's alternative: 1D-row's volume per SpMM, moved as P output
		// reductions instead of P input broadcasts.
		return map[sim.CollOp]int64{
			sim.CollReduce:    pm1 * NS * spmmWidths(m),
			sim.CollAllReduce: weightAllReduce,
		}, nil
	case "gat":
		// GAT forward (§7): per layer one all-gather of the n per-vertex
		// source scores — total extent N·1, so (P-1)·N·S — plus the staged
		// broadcast of Z at the output width, (P-1)·N·F_{l+1}·S.
		var outs int64
		for _, d := range m.Dims[1:] {
			outs += int64(d)
		}
		return map[sim.CollOp]int64{
			sim.CollBroadcast: pm1 * NS * outs,
			sim.CollAllGather: pm1 * NS * L,
		}, nil
	}
	return nil, fmt.Errorf("schedcheck: no volume form for strategy %q", strategy)
}

// broadcastStaged is the form of the broadcast-staged SpMM at replication
// factor c (core's stagedSpMMRow): every distributed SpMM of width w
// broadcasts each block once within its replica group of P/c devices —
// (P/c-1)·N·w·S — and, when c > 1, all-reduces each output block across its
// c replicas, 2(c-1)·N·w·S. c = 1 is the paper's 1D-row (§4.1: (P-1)·N·w·S,
// no cross-group term); c = 2 is 1.5D (§5.1), which needs c to divide P.
func broadcastStaged(m Model, c int, weightAllReduce int64) (map[sim.CollOp]int64, error) {
	if m.P%c != 0 {
		return nil, fmt.Errorf("schedcheck: replication factor %d does not divide P = %d", c, m.P)
	}
	NSw := int64(m.N) * int64(m.S) * spmmWidths(m)
	return map[sim.CollOp]int64{
		sim.CollBroadcast: int64(m.P/c-1) * NSw,
		sim.CollAllReduce: 2*int64(c-1)*NSw + weightAllReduce,
	}, nil
}
