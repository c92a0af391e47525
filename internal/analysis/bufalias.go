package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
)

// BufAlias reports kernel calls whose destination operand aliases a source
// operand through §4.2's shared buffers. Buffer.View hands out matrices
// that share the buffer's storage, which is exactly the reuse the paper
// exploits — but a single GeMM/SpMM call that reads one view of a buffer
// while writing another view of the *same* buffer races with itself (the
// kernels stream rows; in-place is only defined for the elementwise ops).
// Two forms are flagged:
//
//   - the destination operand and a source operand are X.View(...) with
//     the identical receiver expression X, and
//   - the destination and a source of a strict no-alias kernel (the
//     GeMM/SpMM families) are the same *tensor.Dense variable.
//
// Source-source aliasing is deliberately allowed: Gemm(1, x, x, 0, c)
// computes x·x and reads x twice without writing it. The match is
// syntactic on the receiver chain, so views reached through
// differently-named aliases of the same buffer are out of scope.
var BufAlias = &Analyzer{
	Name: "bufalias",
	Doc:  "the same Buffer's .View used as both source and destination operand of one kernel call",
	run:  runBufAlias,
}

// noAliasKernels stream rows from inputs to output; identical input/output
// matrices are undefined. Their destination is the last *tensor.Dense
// argument (c). The elementwise ops (ReLU, AddInPlace, ...) are excluded:
// in-place use is their documented contract. SDDMM allocates its output
// CSR, so it has no destination operand to alias.
func isNoAliasKernel(pass *Pass, call *ast.CallExpr) bool {
	info := pass.Pkg.Info
	return isPkgFunc(info, call, "mggcn/internal/tensor",
		"Gemm", "GemmTA", "GemmTB",
		"ParallelGemm", "ParallelGemmTA", "ParallelGemmTB") ||
		isPkgFunc(info, call, "mggcn/internal/sparse",
			"SpMM", "ParallelSpMM")
}

// isElementwise covers the in-place ops whose first argument is the
// destination. Same-variable in-place use is their contract, but the
// destination must still not be a second, separately materialized view of
// a source's buffer.
func isElementwise(pass *Pass, call *ast.CallExpr) bool {
	return isPkgFunc(pass.Pkg.Info, call, "mggcn/internal/tensor",
		"AddInPlace", "ReLU", "ReLUBackward")
}

// isDenseExpr reports whether the expression's static type is *tensor.Dense.
func isDenseExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Dense" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "mggcn/internal/tensor"
}

// viewKey returns a canonical key and display name for an operand that is
// a Buffer.View call: the printed receiver expression. Two operands with
// equal keys view the same buffer.
func viewKey(pass *Pass, arg ast.Expr) (key, display string, ok bool) {
	call, isCall := ast.Unparen(arg).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	_, typ, meth := methodInfo(pass.Pkg.Info, call)
	if typ != "Buffer" || meth != "View" {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, sel.X); err != nil {
		return "", "", false
	}
	return "view:" + buf.String(), buf.String(), true
}

// denseVarKey returns a canonical key for an operand that is a plain
// variable of type *tensor.Dense, keyed by the variable's object identity.
func denseVarKey(pass *Pass, arg ast.Expr) (key, display string, ok bool) {
	id, isIdent := ast.Unparen(arg).(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil {
		return "", "", false
	}
	ptr, isPtr := obj.Type().(*types.Pointer)
	if !isPtr {
		return "", "", false
	}
	named, isNamed := ptr.Elem().(*types.Named)
	if !isNamed || named.Obj().Name() != "Dense" {
		return "", "", false
	}
	return "var:" + pass.Fset.Position(obj.Pos()).String(), id.Name, true
}

func runBufAlias(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			strict := isNoAliasKernel(pass, call)

			// Split the call's Dense operands into destination and sources.
			var dest ast.Expr
			var sources []ast.Expr
			switch {
			case strict:
				// Destination is the last *tensor.Dense argument (c); the
				// trailing workers int of the Parallel variants is skipped
				// by the type check.
				for _, arg := range call.Args {
					if isDenseExpr(pass, arg) {
						if dest != nil {
							sources = append(sources, dest)
						}
						dest = arg
					}
				}
			case isElementwise(pass, call):
				if len(call.Args) > 0 {
					dest = call.Args[0]
					sources = call.Args[1:]
				}
			default:
				// dst.CopyFrom(src): the receiver is the destination.
				if isMethod(pass.Pkg.Info, call, "mggcn/internal/tensor", "Dense", "CopyFrom") {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						dest = sel.X
						sources = call.Args
					}
				}
			}
			if dest == nil {
				return true
			}

			destKey, display, ok := viewKey(pass, dest)
			if !ok && strict {
				destKey, display, ok = denseVarKey(pass, dest)
			}
			if !ok {
				return true
			}
			for _, src := range sources {
				key, _, ok := viewKey(pass, src)
				if !ok && strict {
					key, _, ok = denseVarKey(pass, src)
				}
				if ok && key == destKey {
					pass.Report(call, "kernel destination aliases a source operand (%s): reading and writing one §4.2 shared buffer in a single kernel is undefined", display)
					break
				}
			}
			return true
		})
	}
}
