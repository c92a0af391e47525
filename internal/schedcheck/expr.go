// Package schedcheck is a symbolic verifier for recorded sim.Graph
// schedules: it walks a graph's declared access sets, shaped extents and
// collective annotations — never executing a closure — and proves three
// properties per strategy and layer stack (DESIGN.md §6.3):
//
//  1. collective matching / deadlock-freedom: every device of a communicator
//     observes a consistent collective order, and collectives on overlapping
//     but distinct communicators are happens-before ordered by the executor's
//     own edges (CheckCollectives);
//  2. shape-flow typing: symbolic tensor extents propagate through SpMM /
//     GeMM / activation / collective tasks and every bind's buffers unify
//     (CheckShapes);
//  3. cost certification: the schedule's communication volume, summed from
//     its annotations, equals a closed-form expression registered for the
//     strategy, with exact integer equality (CertifyVolume).
package schedcheck

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// Expr is a symbolic polynomial over named atoms (N, P, S, F0..FL) with
// exact rational coefficients — the language the per-strategy communication
// closed forms are written in. Expressions are immutable; every operation
// returns a new one. The zero of the algebra is Const(0).
type Expr struct {
	terms map[string]*term // keyed by the canonical monomial string
}

type term struct {
	coef  *big.Rat
	atoms map[string]int // atom -> power (all powers >= 1)
}

func monoKey(atoms map[string]int) string {
	if len(atoms) == 0 {
		return ""
	}
	names := make([]string, 0, len(atoms))
	for a := range atoms {
		names = append(names, a)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, a := range names {
		if b.Len() > 0 {
			b.WriteByte('*')
		}
		b.WriteString(a)
		if p := atoms[a]; p > 1 {
			fmt.Fprintf(&b, "^%d", p)
		}
	}
	return b.String()
}

func newExpr() *Expr { return &Expr{terms: make(map[string]*term)} }

// Const returns the constant expression n.
func Const(n int64) *Expr {
	e := newExpr()
	if n != 0 {
		e.terms[""] = &term{coef: new(big.Rat).SetInt64(n), atoms: map[string]int{}}
	}
	return e
}

// Atom returns the expression consisting of the single named atom.
func Atom(name string) *Expr {
	e := newExpr()
	e.terms[name] = &term{coef: new(big.Rat).SetInt64(1), atoms: map[string]int{name: 1}}
	return e
}

func (e *Expr) addTerm(coef *big.Rat, atoms map[string]int) {
	e.addKeyed(monoKey(atoms), coef, atoms)
}

// addKeyed is addTerm for a caller that already holds the monomial's key.
func (e *Expr) addKeyed(key string, coef *big.Rat, atoms map[string]int) {
	if t, ok := e.terms[key]; ok {
		t.coef.Add(t.coef, coef)
		if t.coef.Sign() == 0 {
			delete(e.terms, key)
		}
		return
	}
	cp := make(map[string]int, len(atoms))
	for a, p := range atoms {
		cp[a] = p
	}
	e.terms[key] = &term{coef: new(big.Rat).Set(coef), atoms: cp}
}

// Sum returns the sum of es in one pass over their terms, so a form with one
// term per layer costs O(L) to build rather than the O(L²) of folding Add.
func Sum(es ...*Expr) *Expr {
	out := newExpr()
	for _, e := range es {
		for key, t := range e.terms {
			out.addKeyed(key, t.coef, t.atoms)
		}
	}
	return out
}

// Add returns e + o.
func (e *Expr) Add(o *Expr) *Expr { return Sum(e, o) }

// Sub returns e - o.
func (e *Expr) Sub(o *Expr) *Expr { return Sum(e, o.Scale(-1, 1)) }

// Mul returns e * o.
func (e *Expr) Mul(o *Expr) *Expr {
	out := newExpr()
	prod := new(big.Rat)
	for _, a := range e.terms {
		for _, b := range o.terms {
			atoms := make(map[string]int, len(a.atoms)+len(b.atoms))
			for n, p := range a.atoms {
				atoms[n] = p
			}
			for n, p := range b.atoms {
				atoms[n] += p
			}
			out.addTerm(prod.Mul(a.coef, b.coef), atoms)
		}
	}
	return out
}

// Scale returns e * num/den (den must be nonzero).
func (e *Expr) Scale(num, den int64) *Expr {
	if den == 0 {
		panic("schedcheck: Scale by zero denominator")
	}
	r := big.NewRat(num, den)
	out := newExpr()
	for key, t := range e.terms {
		out.addKeyed(key, new(big.Rat).Mul(t.coef, r), t.atoms)
	}
	return out
}

// Env binds atoms to concrete values for evaluation.
type Env map[string]int64

// Eval evaluates the expression under env with exact rational arithmetic,
// failing if an atom is unbound or the result is not an integer — a closed
// form whose rational coefficients do not cancel for these dimensions is a
// wrong form, not a rounding matter.
func (e *Expr) Eval(env Env) (int64, error) {
	total := new(big.Rat)
	for _, t := range e.terms {
		v := new(big.Rat).Set(t.coef)
		for a, p := range t.atoms {
			val, ok := env[a]
			if !ok {
				return 0, fmt.Errorf("schedcheck: atom %q unbound in env", a)
			}
			x := new(big.Rat).SetInt64(val)
			for i := 0; i < p; i++ {
				v.Mul(v, x)
			}
		}
		total.Add(total, v)
	}
	if !total.IsInt() {
		return 0, fmt.Errorf("schedcheck: expression %v evaluates to non-integer %s", e, total.RatString())
	}
	return total.Num().Int64(), nil
}

// String renders the polynomial with monomials in lexicographic order,
// e.g. "2*F0*F1*(P - P^0) + N*S*(P - 1)" simplified to coefficient*mono form.
func (e *Expr) String() string {
	if len(e.terms) == 0 {
		return "0"
	}
	keys := make([]string, 0, len(e.terms))
	for k := range e.terms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		t := e.terms[k]
		if i > 0 {
			if t.coef.Sign() >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
			}
		} else if t.coef.Sign() < 0 {
			b.WriteString("-")
		}
		abs := new(big.Rat).Abs(t.coef)
		one := abs.Cmp(big.NewRat(1, 1)) == 0
		switch {
		case k == "":
			b.WriteString(abs.RatString())
		case one:
			b.WriteString(k)
		default:
			b.WriteString(abs.RatString())
			b.WriteByte('*')
			b.WriteString(k)
		}
	}
	return b.String()
}
