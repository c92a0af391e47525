package analysis

import (
	"go/ast"
)

// GroupConsist enforces the record/replay split for collectives: a
// comm.Group collective (Broadcast/ReduceSum/AllReduceSum/...) must be
// issued at record time, never from inside the execution closure of a
// Bind-family call. A collective issued during replay is invisible to the
// recorded graph — it carries no annotation, no dependency edges and no
// meter counts, so schedcheck's deadlock and cost certificates no
// longer cover the schedule that actually runs. Group.Sub is record-time
// topology (it issues nothing) and is exempt.
var GroupConsist = &Analyzer{
	Name: "groupconsist",
	Doc:  "comm.Group collective issued inside an execution closure: the recorded graph cannot see it",
	run:  runGroupConsist,
}

// groupCollectives are the comm.Group methods that record a collective.
var groupCollectives = []string{"Broadcast", "ReduceSum", "AllReduceSum", "AllReduceSumScaled"}

func runGroupConsist(pass *Pass) {
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
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				c, ok := inner.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isMethod(info, c, "mggcn/internal/comm", "Group", groupCollectives...) {
					_, _, method := methodInfo(info, c)
					pass.Report(c, "comm.Group.%s issued inside an execution closure: collectives must be recorded, not replayed raw — the graph gets no annotation, ordering edge or meter count for it (issue it at record time and pass the task id as a dependency)", method)
				}
				return true
			})
			return true
		})
	}
}
