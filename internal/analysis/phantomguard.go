package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PhantomGuard enforces the phantom-mode convention: in packages that
// handle phantom tensors (structure-only matrices carrying shape for
// cost/memory accounting but no storage), every call to a data-touching
// kernel must be dominated by a phantom check — an enclosing branch of an
// `if` whose condition mentions IsPhantom()/a phantom flag, or an earlier
// `if phantom { return }` early exit in the same function. Even where the
// kernels tolerate nil storage internally, an unguarded call in a
// phantom-aware package means a code path that was never decided for
// phantom mode: either it dereferences a view of an unmaterialized buffer,
// or it silently does real work the structure-only mode is supposed to
// skip.
//
// Two places in internal/core take the decision once for many call sites and
// are known to the rule by name: layerRecorder.compute invokes its per-device
// bind callback only for real operands, and methods of sampledDevice run only
// over real storage (NewSampledTrainer rejects phantom datasets first).
//
// The packages that *define* the kernels (internal/tensor,
// internal/sparse) are exempt — phantom handling lives inside the kernels
// there. Packages that never mention phantom mode are exempt too: the rule
// binds only where the mode is in play.
var PhantomGuard = &Analyzer{
	Name: "phantomguard",
	Doc:  "data-touching kernel calls in phantom-aware packages must be dominated by an IsPhantom()/phantom-flag check",
	run:  runPhantomGuard,
}

// kernel-defining packages where the rule does not apply.
var phantomExemptPkgs = map[string]bool{
	"mggcn/internal/tensor": true,
	"mggcn/internal/sparse": true,
}

// isDataTouchingOp matches the kernel entry points that read or write
// tensor storage.
func isDataTouchingOp(pass *Pass, call *ast.CallExpr) (string, bool) {
	info := pass.Pkg.Info
	if isPkgFunc(info, call, "mggcn/internal/tensor",
		"Gemm", "GemmTA", "GemmTB",
		"ParallelGemm", "ParallelGemmTA", "ParallelGemmTB",
		"AddInPlace", "AxpyInPlace", "ScaleInPlace", "ReLU", "ReLUBackward") ||
		isPkgFunc(info, call, "mggcn/internal/sparse",
			"SpMM", "ParallelSpMM", "SDDMM", "ParallelSDDMM") {
		fn := calleeFunc(info, call)
		return fn.Name(), true
	}
	if isMethod(info, call, "mggcn/internal/tensor", "Dense", "CopyFrom") {
		return "Dense.CopyFrom", true
	}
	return "", false
}

// mentionsPhantom reports whether the expression tree references phantom
// mode: an IsPhantom/NewPhantom call or any identifier/field named
// phantom/Phantom.
func mentionsPhantom(e ast.Node) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch {
			case id.Name == "IsPhantom", id.Name == "NewPhantom",
				strings.Contains(strings.ToLower(id.Name), "phantom"):
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// packageHandlesPhantom reports whether any file of the package mentions
// phantom mode at all.
func packageHandlesPhantom(pass *Pass) bool {
	for _, file := range pass.Pkg.Files {
		if mentionsPhantom(file) {
			return true
		}
	}
	return false
}

// terminates reports whether a statement unconditionally leaves the
// enclosing block (the shapes an early-exit guard ends with).
func terminates(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// isEarlyExitGuard reports whether stmt is `if <phantom-ish> { ...; exit }`.
func isEarlyExitGuard(stmt ast.Stmt) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || ifs.Else != nil || !mentionsPhantom(ifs.Cond) {
		return false
	}
	body := ifs.Body.List
	return len(body) > 0 && terminates(body[len(body)-1])
}

// argOfMethod reports whether lit at stack position i is an argument of a
// call to one of the named methods of pkgPath.typeName.
func argOfMethod(pass *Pass, lit *ast.FuncLit, stack []ast.Node, i int, pkgPath, typeName string, methods ...string) bool {
	if i == 0 {
		return false
	}
	call, ok := stack[i-1].(*ast.CallExpr)
	if !ok || !isMethod(pass.Pkg.Info, call, pkgPath, typeName, methods...) {
		return false
	}
	for _, arg := range call.Args {
		if arg == lit {
			return true
		}
	}
	return false
}

// guarded reports whether the call at the end of stack is dominated by a
// phantom check: an ancestor if with a phantom-ish condition, or an
// earlier early-exit guard in any enclosing block.
func guarded(pass *Pass, call *ast.CallExpr, stack []ast.Node) bool {
	// Child pointer as we walk outward, to locate the call's statement
	// within each enclosing block.
	var child ast.Node = call
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			// The call sits in the body or else of this if (not its init or
			// condition) — either branch of a phantom-conditioned if counts:
			// `if !phantom { op }` and `if phantom {} else { op }` both
			// reflect a decision.
			if (child == n.Body || child == n.Else) && mentionsPhantom(n.Cond) {
				return true
			}
		case *ast.BlockStmt:
			for _, s := range n.List {
				if s == child {
					break
				}
				if isEarlyExitGuard(s) {
					return true
				}
			}
		case *ast.FuncDecl:
			// A guard outside the innermost function doesn't dominate its body
			// at execution time — unless it is a method of core's sampledDevice.
			if fn, ok := pass.Pkg.Info.Defs[n.Name].(*types.Func); ok {
				pkg, typ := receiverOf(fn)
				return pkg == "mggcn/internal/core" && typ == "sampledDevice"
			}
			return false
		case *ast.FuncLit:
			// Same for a general closure, with three exceptions. For the bind
			// callback of core's layerRecorder.compute the recorder is the
			// phantom decision. A closure registered via a (*sim.Graph)
			// Bind-family call, and the move closure of the collectives'
			// (*comm.Group).retry attempt loop, run only when the registration
			// site ran, so a phantom guard dominating it dominates the closure
			// body too: keep walking outward.
			if argOfMethod(pass, n, stack, i, "mggcn/internal/core", "layerRecorder", "compute") {
				return true
			}
			if !argOfMethod(pass, n, stack, i, "mggcn/internal/sim", "Graph", "Bind", "BindE", "BindShaped", "BindShapedE") &&
				!argOfMethod(pass, n, stack, i, "mggcn/internal/comm", "Group", "retry") {
				return false
			}
		}
		child = stack[i]
	}
	return false
}

func runPhantomGuard(pass *Pass) {
	if phantomExemptPkgs[pass.Pkg.Path] || !packageHandlesPhantom(pass) {
		return
	}
	for _, file := range pass.Pkg.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := isDataTouchingOp(pass, call); ok && !guarded(pass, call, stack) {
				pass.Report(call, "%s call not dominated by an IsPhantom()/phantom-flag check in a phantom-aware package: a phantom tensor reaching it would be dereferenced (or real work done in structure-only mode)", name)
			}
			return true
		})
	}
}
