package analysis

import (
	"go/ast"
	"go/types"
)

// AccessDecl enforces the access-declaration contract the sanitizer depends
// on (internal/san): a task closure that touches buffer views must tell the
// graph which buffers those are. The only bind forms, Graph.BindShaped and
// BindShapedE, take the reads/writes sets with the closure; this pass flags
// a closure that captures a *tensor.Dense (or slice of them) which appears
// nowhere in those two argument expressions. The declaration exists but is
// blind to that buffer — exactly the drift the shadow replay exists to
// catch at runtime; this pass catches it at vet time.
//
// The check is intentionally syntactic on the declaration side: a captured
// identifier is considered declared if the same variable occurs in the
// reads or writes expressions (e.g. inside sim.ShapesOf(x, w) or a stamps(...)
// helper). Buffers reached through container structs are outside its scope —
// that is what the shadow replay covers.
var AccessDecl = &Analyzer{
	Name: "accessdecl",
	Doc:  "Bind closure touches tensor buffers not covered by a declared access set",
	run:  runAccessDecl,
}

// isDenseType reports whether t is *tensor.Dense or a (nested) slice of it.
func isDenseType(t types.Type) bool {
	for {
		sl, ok := t.(*types.Slice)
		if !ok {
			break
		}
		t = sl.Elem()
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Dense" && obj.Pkg() != nil && obj.Pkg().Path() == "mggcn/internal/tensor"
}

// denseCaptures filters capturedVars down to buffer-view variables.
func denseCaptures(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	for v := range capturedVars(info, lit) {
		if isDenseType(v.Type()) {
			out = append(out, v)
		}
	}
	return out
}

// declaredVars collects every variable referenced in the given expressions.
func declaredVars(info *types.Info, exprs ...ast.Expr) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					out[v] = true
				}
			}
			return true
		})
	}
	return out
}

func runAccessDecl(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit := bindClosure(pass, call)
			if lit == nil {
				return true
			}
			captured := denseCaptures(info, lit)
			if len(captured) == 0 {
				return true
			}
			// BindShaped/BindShapedE(id, reads, writes, fn): the two
			// access-set expressions.
			if len(call.Args) < 4 {
				return true
			}
			declared := declaredVars(info, call.Args[1], call.Args[2])
			for _, v := range captured {
				if !declared[v] {
					pass.Report(call, "BindShaped closure captures buffer view %q, which appears in neither the reads nor the writes declaration", v.Name())
				}
			}
			return true
		})
	}
}
