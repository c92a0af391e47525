package analysis

import (
	"go/ast"
)

// ShapeDecl enforces the shape-declaration contract schedcheck's
// typing pass depends on: a bind whose closure touches *tensor.Dense views
// must register their dimensions, not just their buffer identities. BindRW
// declares reads/writes as bare buffer sets, which is enough for the
// sanitizer's ordering checks but leaves the shape-flow typing pass blind —
// an aliased view at the wrong extent sails through. BindShaped/BindShapedE
// take sim.ViewShape sets (sim.ShapesOf(...)) and cost nothing extra at the
// call site.
var ShapeDecl = &Analyzer{
	Name: "shapedecl",
	Doc:  "Dense-touching bind declares buffers without dims: shape-flow typing cannot check it",
	run:  runShapeDecl,
}

func runShapeDecl(pass *Pass) {
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
			if !isMethod(info, call, "mggcn/internal/sim", "Graph", "BindRW", "BindRWE") {
				return true
			}
			if captured := denseCaptures(info, lit); len(captured) > 0 {
				pass.Report(call, "BindRW closure captures buffer view %q but registers no dims; use BindShaped/BindShapedE with sim.ShapesOf so schedcheck can type the access", captured[0].Name())
			}
			return true
		})
	}
}
