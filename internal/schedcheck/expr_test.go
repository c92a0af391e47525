package schedcheck

import (
	"strings"
	"testing"
)

func mustEval(t *testing.T, e *Expr, env Env) int64 {
	t.Helper()
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%v): %v", e, err)
	}
	return v
}

func TestExprAlgebra(t *testing.T) {
	env := Env{"N": 61, "P": 4, "S": 3}
	// (P-1)*N*S
	e := Atom("P").Sub(Const(1)).Mul(Atom("N")).Mul(Atom("S"))
	if got := mustEval(t, e, env); got != 3*61*3 {
		t.Fatalf("(P-1)*N*S = %d, want %d", got, 3*61*3)
	}
	// P/2 - 1 at P=4
	if got := mustEval(t, Atom("P").Scale(1, 2).Sub(Const(1)), env); got != 1 {
		t.Fatalf("P/2-1 = %d, want 1", got)
	}
	// Like terms cancel: N + N - 2N == 0
	zero := Atom("N").Add(Atom("N")).Sub(Const(2).Mul(Atom("N")))
	if got := mustEval(t, zero, env); got != 0 {
		t.Fatalf("cancelled expression = %d, want 0", got)
	}
	if zero.String() != "0" {
		t.Fatalf("cancelled expression renders %q, want 0", zero.String())
	}
	// Powers collect: N*N renders N^2
	if s := Atom("N").Mul(Atom("N")).String(); s != "N^2" {
		t.Fatalf("N*N renders %q", s)
	}
}

func TestSumMatchesFoldedAdd(t *testing.T) {
	terms := []*Expr{
		Atom("F0").Mul(Atom("F1")), Atom("N").Scale(3, 2), Const(-4),
		Atom("F0").Mul(Atom("F1")).Scale(-1, 1), Atom("N").Scale(1, 2), Const(4), Atom("S"),
	}
	before := make([]string, len(terms))
	folded := Const(0)
	for i, e := range terms {
		before[i] = e.String()
		folded = folded.Add(e)
	}
	sum := Sum(terms...)
	if sum.String() != folded.String() || sum.String() != "2*N + S" {
		t.Fatalf("Sum = %q, folded Add = %q, want 2*N + S", sum, folded)
	}
	for i, e := range terms {
		if e.String() != before[i] {
			t.Fatalf("Sum mutated operand %d: %q -> %q", i, before[i], e)
		}
	}
	// The result owns its coefficients: merging like terms into it leaves
	// the operand they came from alone.
	if twice := Sum(sum, sum); twice.String() != "4*N + 2*S" || sum.String() != "2*N + S" {
		t.Fatalf("Sum(s, s) = %q with s now %q, want 4*N + 2*S and 2*N + S", twice, sum)
	}
	if s := Sum().String(); s != "0" {
		t.Fatalf("empty Sum renders %q", s)
	}
}

func TestExprEvalErrors(t *testing.T) {
	if _, err := Atom("Q").Eval(Env{"N": 1}); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("unbound atom error = %v", err)
	}
	// P/2 at odd P is not an integer — the exactness contract.
	if _, err := Atom("P").Scale(1, 2).Eval(Env{"P": 3}); err == nil || !strings.Contains(err.Error(), "non-integer") {
		t.Fatalf("non-integer error = %v", err)
	}
}

func TestExprString(t *testing.T) {
	e := Const(2).Mul(Atom("F0")).Mul(Atom("F1")).Add(Atom("N").Mul(Atom("S")))
	if s := e.String(); s != "2*F0*F1 + N*S" {
		t.Fatalf("render = %q", s)
	}
	if s := Const(0).String(); s != "0" {
		t.Fatalf("zero renders %q", s)
	}
	if s := Const(1).Sub(Atom("P")).String(); s != "1 - P" {
		t.Fatalf("negative term renders %q", s)
	}
}
