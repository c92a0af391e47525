package analysis

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions, methods and function
// variables of internal packages (keyed by entryName) that stay although no
// non-test code of this module uses them, each with the reason it stays.
var exportAllowlist = map[string]string{
	// The repository benchmark (benchmark/, a module of its own) calls these.
	"(*mggcn/internal/comm.Meter).Reset":           "benchmark/ zeroes the meter between timed epochs",
	"(*mggcn/internal/sparse.CSR).SubMatrix":       "benchmark/ cuts the SpMM workload tiles",
	"(*mggcn/internal/sample.FeatureCache).Gather": "benchmark/ times the gather on its own",
	"mggcn/internal/tensor.GemmFlops":              "benchmark/ converts GeMM time to GFLOP/s",
	"mggcn/internal/sparse.SpMMFlops":              "benchmark/ converts SpMM time to GFLOP/s",

	// Test support: other packages' tests build fixtures and oracles with these.
	"mggcn/internal/sparse.FromCoo":             "test support: builds CSR fixtures from entry lists",
	"(*mggcn/internal/sparse.CSR).ToDenseRows":  "test support: the dense oracle of the sparse kernels",
	"(*mggcn/internal/sparse.CSR).CountTileNNZ": "test support: the oracle of the partitioner's tile counts",
	"mggcn/internal/sparse.NormalizeRowMean":    "test support: the sampler tests' oracle of mean aggregation",
	"(*mggcn/internal/tensor.Dense).ColSlice":   "test support: strided operands for the kernel tests",
	"(*mggcn/internal/tensor.Dense).Fill":       "test support: constant fixtures",
	"(*mggcn/internal/tensor.Dense).Set":        "test support: single-element fixtures in the nn and sparse tests",
	"mggcn/internal/tensor.Equal":               "test support: the tolerance compare the floateq rule points to",
	"mggcn/internal/fault.OnKind":               "test support: kind-scoped fault specs in the trainers' tests",
	"mggcn/internal/gen.BTER":                   "test support: structure-only graph fixtures (gen.Generate builds the same graph beside its label and feature draws)",
}

// interfaceMethods are method names the standard library calls through an
// interface this module never calls itself.
var interfaceMethods = map[string]string{
	"String": "fmt.Stringer",
	"Unwrap": "errors.Is/As/Unwrap",
}

// TestExportsHaveNonTestUse fails when an exported function, method or
// package-level function variable (kernel's dispatch table) of an internal
// package has no use in the module's non-test code and is not on
// exportAllowlist: an entry point only tests call is either deleted, moved
// into the tests, or listed with its reason. A use inside an entry point
// that is itself unused does not count (AxpyInPlace was kernel.Axpy's one
// caller), nor does an assignment to a variable (the dispatch table's
// install). Imports resolve from export data, so a use in another package
// is a different object than the declaration; uses are keyed by entryName.
// A method counts as used when an interface method of the same name and
// signature is called (it is reached through the interface).
func TestExportsHaveNonTestUse(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := ld.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	usedIn := map[string][]string{}     // entryName -> entryName of each function using it, "" outside any
	viaIface := map[string]bool{}       // methodKey of every interface method called
	methods := map[string]*types.Func{} // the exported concrete methods
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		if nestedModule(ld.ModuleRoot, pkg.Dir) {
			continue // benchmark/ is its own module; its uses are allowlisted
		}
		internal := strings.HasPrefix(pkg.Path, ld.ModulePath+"/internal/")
		for _, obj := range pkg.Info.Defs {
			if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
				continue
			}
			if internal && obj != nil && obj.Exported() && entryName(obj) != "" {
				declared[entryName(obj)] = true
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					methods[entryName(fn)] = fn
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				in := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					in = entryName(pkg.Info.Defs[fd.Name])
				}
				assigned := map[*ast.Ident]bool{}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, l := range n.Lhs {
							if s, ok := l.(*ast.SelectorExpr); ok {
								assigned[s.Sel] = true
							} else if id, ok := l.(*ast.Ident); ok {
								assigned[id] = true
							}
						}
					case *ast.Ident:
						obj := pkg.Info.Uses[n]
						if name := entryName(obj); name != "" && !assigned[n] {
							usedIn[name] = append(usedIn[name], in)
						}
						if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
							viaIface[methodKey(fn)] = true
						}
					}
					return true
				})
			}
		}
	}
	// dead starts as every entry not reached through an interface, and loses
	// those used from live code until nothing changes: what is left is used
	// only by tests or by other entries left.
	dead := map[string]bool{}
	for name := range declared {
		if m := methods[name]; m == nil || !viaIface[methodKey(m)] && interfaceMethods[m.Name()] == "" {
			dead[name] = true
		}
	}
	reached := func(name string) bool {
		for _, in := range usedIn[name] {
			if !dead[in] {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for name := range dead {
			if reached(name) {
				delete(dead, name)
				changed = true
			}
		}
	}
	for name := range exportAllowlist {
		if !declared[name] {
			t.Errorf("exportAllowlist names %s, which is not declared any more", name)
		} else if !dead[name] {
			t.Errorf("%s is used in non-test code now: drop it from exportAllowlist", name)
		}
	}
	for _, name := range sortedKeys(dead) {
		if _, ok := exportAllowlist[name]; !ok {
			t.Errorf("%s is exported but only tests use it: delete it, move it into the tests, or list it in exportAllowlist with the reason it stays", name)
		}
	}
}

// nestedModule reports whether dir lies in a module of its own below root.
func nestedModule(root, dir string) bool {
	for ; len(dir) > len(root); dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return true
		}
	}
	return false
}

// entryName keys an entry point the same way wherever it is seen, in its
// package's source or in another package's export data: a function's or
// method's FullName, or path.Name for a package-level variable of function
// type. Any other object has no entry name.
func entryName(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin().FullName()
	case *types.Var:
		if _, ok := o.Type().Underlying().(*types.Signature); ok && o.Pkg() != nil && o.Pkg().Scope().Lookup(o.Name()) == o {
			return o.Pkg().Path() + "." + o.Name()
		}
	}
	return ""
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// methodKey is a method's name and parameter and result types, without the
// receiver: what a concrete method shares with the interface method it
// implements.
func methodKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tup := range [...]*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('|')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil))
			b.WriteByte(',')
		}
	}
	return b.String()
}
