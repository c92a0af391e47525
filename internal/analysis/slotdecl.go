package analysis

import (
	"go/ast"
	"go/types"
)

// SlotDecl enforces the sampler/trainer handoff contract the sampled
// pipeline's correctness rests on (DESIGN.md §6.4, internal/core sampled
// training): the opaque slot pseudo-buffer must appear in the declared
// access sets on *both* sides of the handoff, or the sanitizer cannot see
// the recycle edge and the pipeline's write-after-read ordering is
// unchecked.
//
// Concretely, for a task created with KindSample, KindExtract or KindAdam:
//
//   - a sample task's BindShaped writes must declare an opaque slot
//     (sim.OpaqueShape): the sampler publishes blocks through the slot;
//   - an extract task must declare one in both reads (the slot it drains)
//     and writes (the slot plus the gathered-feature slab it fills);
//   - an Adam task's reads must declare one: Adam is the slot-recycle
//     point, and declaring the slot read makes the recycle dependency
//     (sample(s+depth) deps Adam(s)) a checked write-after-read. This leg
//     applies only in files that also create sampler tasks — the
//     full-batch trainer's Adam has no handoff to declare. (The trainers
//     record Adam through core's replicas.recordAdam, which declares the
//     slot it is handed; this leg guards an Adam bound by hand.)
//
// The declaration check is syntactic with local taint: an access-set
// expression satisfies it if it contains a direct sim.OpaqueShape call or
// an identifier assigned (transitively) from one — the `slotShape := ...`
// and conditional `slotReads = append(...)` idioms the trainer uses.
var SlotDecl = &Analyzer{
	Name: "slotdecl",
	Doc:  "sampler/trainer handoff task omits the slot pseudo-buffer from its declared access sets",
	run:  runSlotDecl,
}

// slotKinds maps the relevant sim.Kind constant names to which access sets
// must declare a slot.
var slotKinds = map[string]struct{ reads, writes bool }{
	"KindSample":  {reads: false, writes: true},
	"KindExtract": {reads: true, writes: true},
	"KindAdam":    {reads: true, writes: false},
}

// kindConstName resolves expr to a sim.Kind constant's name ("KindSample",
// ...), or "" when it is not a named sim constant.
func kindConstName(info *types.Info, expr ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Path() != "mggcn/internal/sim" {
		return ""
	}
	return c.Name()
}

// taskKind extracts the sim.Kind constant name from an AddStage or
// AddCompute call, or "" for other calls / non-constant kinds.
func taskKind(info *types.Info, call *ast.CallExpr) string {
	switch {
	case isMethod(info, call, "mggcn/internal/sim", "Graph", "AddStage"):
		// AddStage(device, stream, kind, label, ...)
		if len(call.Args) > 2 {
			return kindConstName(info, call.Args[2])
		}
	case isMethod(info, call, "mggcn/internal/sim", "Graph", "AddCompute"):
		// AddCompute(device, kind, label, ...)
		if len(call.Args) > 1 {
			return kindConstName(info, call.Args[1])
		}
	}
	return ""
}

// hasOpaqueCall reports whether expr contains a direct sim.OpaqueShape call.
func hasOpaqueCall(info *types.Info, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPkgFunc(info, call, "mggcn/internal/sim", "OpaqueShape") {
			found = true
			return false
		}
		return !found
	})
	return found
}

// slotTaint computes the fixpoint of variables assigned (transitively) from
// an expression containing a sim.OpaqueShape call, across the whole file —
// variable objects are unique, so no cross-function collisions arise.
func slotTaint(info *types.Info, file *ast.File) map[*types.Var]bool {
	type assign struct {
		lhs *types.Var
		rhs ast.Expr
	}
	var assigns []assign
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || rhs == nil {
			return
		}
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			v, ok = info.Uses[id].(*types.Var)
		}
		if ok && v != nil {
			assigns = append(assigns, assign{v, rhs})
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					record(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					record(s.Names[i], s.Values[i])
				}
			}
		}
		return true
	})

	tainted := map[*types.Var]bool{}
	taintedExpr := func(e ast.Expr) bool {
		if hasOpaqueCall(info, e) {
			return true
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && tainted[v] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			if !tainted[a.lhs] && taintedExpr(a.rhs) {
				tainted[a.lhs] = true
				changed = true
			}
		}
	}
	return tainted
}

func runSlotDecl(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		// Task-ID variable -> the sim.Kind constant it was created with,
		// plus whether this file builds a sampled pipeline at all (creates
		// any KindSample task) — only then does the Adam leg apply.
		kinds := map[*types.Var]string{}
		fileHasSampler := false
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && taskKind(info, call) == "KindSample" {
				fileHasSampler = true
			}
			s, ok := n.(*ast.AssignStmt)
			if !ok || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			kind := taskKind(info, call)
			if kind == "" {
				return true
			}
			if id, ok := s.Lhs[0].(*ast.Ident); ok {
				if v, ok := info.Defs[id].(*types.Var); ok {
					kinds[v] = kind
				} else if v, ok := info.Uses[id].(*types.Var); ok {
					kinds[v] = kind
				}
			}
			return true
		})

		var tainted map[*types.Var]bool // built lazily: most files have no handoff tasks
		declaresSlot := func(e ast.Expr) bool {
			if hasOpaqueCall(info, e) {
				return true
			}
			if tainted == nil {
				tainted = slotTaint(info, file)
			}
			found := false
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && tainted[v] {
						found = true
					}
				}
				return !found
			})
			return found
		}

		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isMethod(info, call, "mggcn/internal/sim", "Graph", "BindShaped", "BindShapedE") {
				return true
			}
			if len(call.Args) < 4 {
				return true
			}
			kind := ""
			if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
				kind = taskKind(info, inner)
			} else if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					kind = kinds[v]
				}
			}
			want, ok := slotKinds[kind]
			if !ok {
				return true
			}
			if kind == "KindAdam" && !fileHasSampler {
				return true
			}
			if want.reads && !declaresSlot(call.Args[1]) {
				pass.Report(call, "%s task's reads declare no handoff slot pseudo-buffer (sim.OpaqueShape): the sanitizer cannot order the sampler/trainer handoff", kind)
			}
			if want.writes && !declaresSlot(call.Args[2]) {
				pass.Report(call, "%s task's writes declare no handoff slot pseudo-buffer (sim.OpaqueShape): the sanitizer cannot order the sampler/trainer handoff", kind)
			}
			return true
		})
	}
}
