// Package analysis is mggcn-vet's self-contained static-analysis framework:
// a package loader and a rule suite built only on the standard library's
// go/ast, go/parser, go/types and go/importer (the module is offline, so no
// golang.org/x/tools dependency). Each rule encodes one invariant of the
// MG-GCN design that the Go type system cannot express — dropped scheduling
// dependencies (§4.3), aliased shared-buffer views (§4.2), nondeterministic
// RNG seeding, exact float comparison, collectives issued from execution
// closures, and Dense-touching binds that register no dims for the schedule
// verifier. See DESIGN.md "Static analysis".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one named rule. run inspects the package in a Pass and
// reports findings through Pass.Report.
type Analyzer struct {
	Name string
	Doc  string
	run  func(pass *Pass)
}

// Pass couples one analyzer run over one loaded package with its output.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	findings []Finding
}

// Analyzers returns the full mggcn-vet rule suite in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{TaskDep, BufAlias, RNGDeterminism, FloatEq, BindCapture, AccessDecl, GroupConsist, SlotDecl}
}

// Run applies the analyzer to pkg and returns the surviving findings.
func (a *Analyzer) Run(pkg *Package) []Finding {
	pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg}
	a.run(pass)
	return pass.findings
}

// Report records a finding at node's position unless a "vet:ok <rule>"
// comment on the same line or the line directly above suppresses it. The
// comment form the analyzer recognizes is:
//
//	_ = tg.AddComm(...) // vet:ok taskdep: terminal task, stream FIFO orders it
func (p *Pass) Report(node ast.Node, format string, args ...any) {
	pos := p.Fset.Position(node.Pos())
	if p.Pkg.suppressed(p.Analyzer.Name, pos) {
		return
	}
	p.findings = append(p.findings, Finding{
		Pos:  pos,
		Rule: p.Analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether a vet:ok comment for rule covers line or the
// line above it in file.
func (pkg *Package) suppressed(rule string, pos token.Position) bool {
	lines := pkg.commentLines[pos.Filename]
	for _, ln := range []int{pos.Line, pos.Line - 1} {
		if text, ok := lines[ln]; ok && strings.Contains(text, "vet:ok "+rule) {
			return true
		}
	}
	return false
}

// inspectStack walks root depth-first, passing each node and its ancestor
// stack (outermost first, excluding n itself). Returning false skips n's
// children.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// calleeFunc resolves the function or method a call invokes, or nil for
// indirect calls through function values and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether call invokes a package-level function of pkgPath
// whose name is in names.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// methodInfo returns the receiver's named-type name and defining package
// path when call invokes a method, or "" otherwise.
func methodInfo(info *types.Info, call *ast.CallExpr) (pkgPath, typeName, method string) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", "", ""
	}
	if pkgPath, typeName = receiverOf(fn); typeName == "" {
		return "", "", ""
	}
	return pkgPath, typeName, fn.Name()
}

// receiverOf returns the defining package path and named-type name of fn's
// receiver (pointer or value), or "" when fn is not a method of a named type.
func receiverOf(fn *types.Func) (pkgPath, typeName string) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	return pkgPath, named.Obj().Name()
}

// isMethod reports whether call invokes method on the named type
// pkgPath.typeName (pointer or value receiver).
func isMethod(info *types.Info, call *ast.CallExpr, pkgPath, typeName string, methods ...string) bool {
	p, t, m := methodInfo(info, call)
	if p != pkgPath || t != typeName {
		return false
	}
	for _, want := range methods {
		if m == want {
			return true
		}
	}
	return false
}
