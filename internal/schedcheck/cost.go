package schedcheck

import (
	"fmt"
	"sort"
	"strings"

	"mggcn/internal/sim"
)

// Volume is a strategy's certified communication cost: one closed-form
// expression per collective class, in exact words over the atoms N (total
// vertices), P (devices), S (dataset scale) and F0..FL (layer widths).
// Partition unevenness cancels in every shipped form — the per-block row
// counts always sum to N — which is why the forms need no per-block atoms.
type Volume struct {
	PerOp map[sim.CollOp]*Expr
}

// Model is what a closed form may depend on: the strategy's layer widths
// and the trainer options that change which collectives are issued. The
// widths double as concrete values (for branch decisions like the §4.4
// order switch, which symbolic atoms cannot express) and as atom indices.
type Model struct {
	Dims              []int // layer widths F0..FL
	OrderSwitch       bool
	SkipFirstBackward bool
}

// EnvFor binds the standard atoms: N, P, S and F0..F{len(dims)-1}.
func EnvFor(n, p int, scale int64, dims []int) Env {
	env := Env{"N": int64(n), "P": int64(p), "S": scale}
	for i, d := range dims {
		env[fmt.Sprintf("F%d", i)] = int64(d)
	}
	return env
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
// the closed form, per collective class, with exact integer equality. A
// mismatch in either direction — schedule moves words the form does not
// predict, or the form predicts volume the schedule never issues — is a
// finding naming the class, both values, and the symbolic form.
func CertifyVolume(g *sim.Graph, vol *Volume, env Env) []Finding {
	var out []Finding
	measured := AnnotatedWords(g)
	for _, op := range sim.CollOps() {
		form := vol.PerOp[op]
		var want int64
		if form != nil {
			var err error
			want, err = form.Eval(env)
			if err != nil {
				out = append(out, Finding{Check: "cost", Task: -1,
					Msg: fmt.Sprintf("%s form %q: %v", op, form, err)})
				continue
			}
		}
		got := measured[op]
		if got != want {
			out = append(out, Finding{Check: "cost", Task: -1,
				Msg: fmt.Sprintf("%s volume: schedule moves %d words, closed form %q = %d under %s",
					op, got, formString(form), want, envString(env))})
		}
	}
	return out
}

func formString(e *Expr) string {
	if e == nil {
		return "0"
	}
	return e.String()
}

func envString(env Env) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, env[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// ---- Shipped closed forms ------------------------------------------------
//
// Notation: pm1 = P-1, every distributed SpMM over width w moves N·w rows
// of full-scale features (Σ_j rows_j = N regardless of partition balance),
// and the weight all-reduce is unscaled (gradients are model-sized, not
// dataset-sized). Derivations in DESIGN.md §6.3.

func atomF(l int) *Expr { return Atom(fmt.Sprintf("F%d", l)) }

// spmmWidths lists the dense widths of every distributed SpMM one epoch of
// the Trainer issues under model m: forward per layer (the §4.4 order switch
// picks min(F_l, F_{l+1})), backward per layer at F_{l+1} except layer 0
// when the §4.4 skip applies.
func spmmWidths(m Model) []*Expr {
	L := len(m.Dims) - 1
	var ws []*Expr
	for l := 0; l < L; l++ {
		w := atomF(l + 1)
		if m.OrderSwitch && m.Dims[l] < m.Dims[l+1] {
			w = atomF(l)
		}
		ws = append(ws, w)
	}
	for l := L - 1; l >= 0; l-- {
		if l == 0 && m.SkipFirstBackward {
			continue
		}
		ws = append(ws, atomF(l+1))
	}
	return ws
}

// weightAllReduce is Σ_l 2·(P-1)·F_l·F_{l+1}: one unscaled gradient
// all-reduce per layer, issued by the Trainer under every strategy.
func weightAllReduce(m Model) *Expr {
	return Const(2).Mul(Atom("P").Sub(Const(1))).Mul(weights(m))
}

// weights is Σ_l F_l·F_{l+1}, the model's weight count.
func weights(m Model) *Expr {
	terms := make([]*Expr, len(m.Dims)-1)
	for l := range terms {
		terms[l] = atomF(l).Mul(atomF(l + 1))
	}
	return Sum(terms...)
}

func sumWidths(m Model) *Expr { return Sum(spmmWidths(m)...) }

// VolumeForm builds the closed form of the named strategy under m: the three
// full-batch SpMM strategies (core.Strategy.Name), the GAT forward, or the
// CAGNET baseline. A new strategy is a new case here beside its row in core's
// strategy table — the CAGNET-style analysis lives with the form, the checker
// stays generic.
func VolumeForm(strategy string, m Model) (*Volume, error) {
	NS := Atom("N").Mul(Atom("S"))
	pm1 := Atom("P").Sub(Const(1))
	L := len(m.Dims) - 1
	switch strategy {
	case "1d-row":
		return broadcastStaged(m, 1), nil
	case "1.5d":
		return broadcastStaged(m, 2), nil
	case "1d-col":
		// §4.1's alternative: 1D-row's volume per SpMM, moved as P output
		// reductions instead of P input broadcasts.
		return &Volume{PerOp: map[sim.CollOp]*Expr{
			sim.CollReduce:    pm1.Mul(NS).Mul(sumWidths(m)),
			sim.CollAllReduce: weightAllReduce(m),
		}}, nil
	case "gat":
		// GAT forward (§7): per layer one all-gather of the n per-vertex
		// source scores — total extent N·1, so (P-1)·N·S — plus the staged
		// broadcast of Z at the output width, (P-1)·N·F_{l+1}·S.
		outs := make([]*Expr, L)
		for l := range outs {
			outs[l] = atomF(l + 1)
		}
		return &Volume{PerOp: map[sim.CollOp]*Expr{
			sim.CollBroadcast: pm1.Mul(NS).Mul(Sum(outs...)),
			sim.CollAllGather: pm1.Mul(NS).Scale(int64(L), 1),
		}}, nil
	case "cagnet":
		// CAGNET 1D baseline: aggregate-then-transform at min(F_l, F_{l+1})
		// forward, full-width backward SpMM on every layer (no §4.4
		// savings), and one full-model gradient all-reduce per layer.
		widths := make([]*Expr, L)
		for l := range widths {
			w := atomF(l + 1)
			if m.Dims[l] < m.Dims[l+1] {
				w = atomF(l)
			}
			widths[l] = w.Add(atomF(l + 1))
		}
		return &Volume{PerOp: map[sim.CollOp]*Expr{
			sim.CollBroadcast: pm1.Mul(NS).Mul(Sum(widths...)),
			sim.CollAllReduce: Const(2 * int64(L)).Mul(pm1).Mul(weights(m)),
		}}, nil
	}
	return nil, fmt.Errorf("schedcheck: no volume form for strategy %q", strategy)
}

// broadcastStaged is the form of the broadcast-staged SpMM at replication
// factor c (core's stagedSpMMRow): every distributed SpMM of width w
// broadcasts each block once within its replica group of P/c devices —
// (P/c-1)·N·w·S — and, when c > 1, all-reduces each output block across its
// c replicas, 2(c-1)·N·w·S. c = 1 is the paper's 1D-row (§4.1: (P-1)·N·w·S,
// no cross-group term); c = 2 is 1.5D (§5.1).
func broadcastStaged(m Model, c int64) *Volume {
	NSw := Atom("N").Mul(Atom("S")).Mul(sumWidths(m))
	groupm1 := Atom("P").Scale(1, c).Sub(Const(1))
	return &Volume{PerOp: map[sim.CollOp]*Expr{
		sim.CollBroadcast: groupm1.Mul(NSw),
		sim.CollAllReduce: Const(2 * (c - 1)).Mul(NSw).Add(weightAllReduce(m)),
	}}
}
