package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BindCapture reports BindShaped/BindShapedE closures that capture a variable by
// reference across loop iterations: the variable is declared *outside* an
// enclosing for/range loop of the registration site but reassigned *inside*
// it. Under the record/execute split such a closure does not run where it
// is written — it runs when sim.Graph.Execute replays the task, by which
// time the recording loop has long finished and the shared variable holds
// its final value. Every closure bound in the loop then reads the same
// (last) value instead of its own iteration's: the classic staging-buffer
// rebinding bug, invisible to the race detector when replay happens to be
// serial.
//
// Loop-header variables (`for i := ...`, `for i, v := range ...`) and
// variables declared in the loop body are per-iteration in this module's Go
// version and are not flagged; neither are `:=` redefinitions (each
// iteration defines a fresh instance). Only a plain assignment to an
// outer-declared identifier inside the loop creates the shared rebinding.
var BindCapture = &Analyzer{
	Name: "bindcapture",
	Doc:  "Bind closure captures a loop-reassigned outer variable: all bound closures replay with its final value",
	run:  runBindCapture,
}

// bindClosure returns the func-literal argument of a Graph Bind-family
// call: BindShaped and its error-returning variant BindShapedE.
func bindClosure(pass *Pass, call *ast.CallExpr) *ast.FuncLit {
	if !isMethod(pass.Pkg.Info, call, "mggcn/internal/sim", "Graph", "BindShaped", "BindShapedE") {
		return nil
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

// capturedVars returns the local variables lit references that are declared
// outside it, keyed by object with one representative use position.
func capturedVars(info *types.Info, lit *ast.FuncLit) map[*types.Var]token.Pos {
	out := make(map[*types.Var]token.Pos)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level state is out of scope here (one instance, no
		// per-iteration expectation); so is anything declared inside the
		// closure itself.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if _, seen := out[v]; !seen {
			out[v] = id.Pos()
		}
		return true
	})
	return out
}

// loopBody returns the body of a for/range statement, or nil.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// assignedIn reports whether v is the target of a plain (non-define)
// assignment or inc/dec anywhere under root. Writes through an index or
// field expression do not rebind the variable and do not count.
func assignedIn(info *types.Info, root ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && info.Uses[id] == v {
					found = true
					return false
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(st.X).(*ast.Ident); ok && info.Uses[id] == v {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func runBindCapture(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit := bindClosure(pass, call)
			if lit == nil {
				return true
			}
			captured := capturedVars(info, lit)
			reported := make(map[*types.Var]bool)
			// Walk the enclosing loops of the registration site, innermost
			// last in stack order.
			for _, anc := range stack {
				body := loopBody(anc)
				if body == nil {
					continue
				}
				for v := range captured {
					if reported[v] {
						continue
					}
					// Declared within this loop (header or body): each
					// iteration gets its own instance.
					if v.Pos() >= anc.Pos() && v.Pos() <= anc.End() {
						continue
					}
					if assignedIn(info, body, v) {
						reported[v] = true
						pass.Report(lit, "closure captures %q, which is declared outside the enclosing loop but reassigned inside it: every closure bound in this loop replays with the variable's final value, not its own iteration's (hoist the value into a loop-local before binding)", v.Name())
					}
				}
			}
			return true
		})
	}
}
