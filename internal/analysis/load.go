package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the syntax trees of its
// non-test files plus the resolved type information the rules match on.
// Test files are excluded on purpose — the rules encode production
// invariants (tests legitimately discard task IDs, compare floats exactly,
// and so on).
type Package struct {
	Path  string // import path, e.g. mggcn/internal/core
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-check errors; rules still run on the
	// partially resolved package so one broken file doesn't hide findings
	// elsewhere.
	TypeErrors []error

	// commentLines maps filename -> line -> concatenated comment text on
	// that line, for vet:ok suppression and the fixture tests' want tags.
	commentLines map[string]map[int]string
}

// Loader loads module packages from source and resolves their imports from
// compiled export data (`go list -export`), so type-checking a package
// never requires type-checking its dependency closure from source.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.ImporterFrom
}

// NewLoader locates the enclosing module of dir and indexes the export
// data of every module package and its transitive dependencies.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		exports:    map[string]string{},
	}
	// -e tolerates packages that fail to compile: their own export entry is
	// empty, but the rest of the module stays analyzable.
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		detail := ""
		if ee, ok := err.(*exec.ExitError); ok {
			detail = ": " + strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("analysis: go list -export failed: %w%s", err, detail)
	}
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(strings.TrimSpace(line), "=")
		if ok && path != "" && file != "" {
			l.exports[path] = file
		}
	}
	l.imp = gcImporter{importer.ForCompiler(l.fset, "gc", l.lookup)}
	return l, nil
}

func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(file)
}

// gcImporter wraps the gc export-data importer with the "unsafe" special
// case, which has no export data.
type gcImporter struct{ next types.Importer }

func (g gcImporter) Import(path string) (*types.Package, error) {
	return g.ImportFrom(path, "", 0)
}

func (g gcImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return g.next.Import(path)
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
	}
}

// LoadAll loads every package of the module (skipping testdata, vendor and
// hidden directories), sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			rel, _ := filepath.Rel(l.ModuleRoot, path)
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, rel := range dirs {
		pkg, err := l.LoadDir(rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the package in the module-root-relative
// directory rel. Parse errors fail the load; type errors are collected on
// the package and analysis proceeds best-effort.
func (l *Loader) LoadDir(rel string) (*Package, error) {
	dir := filepath.Join(l.ModuleRoot, rel)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	importPath := l.ModulePath
	if rel != "." && rel != "" {
		importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{
		Path:         importPath,
		Dir:          dir,
		Fset:         l.fset,
		commentLines: map[string]map[int]string{},
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor build constraints (GOOS/GOARCH filename suffixes and
		// //go:build lines) for the default build, so e.g. the per-arch
		// kernel dispatch files don't collide in one package.
		// The export data above is also from the default build, so the two
		// views stay consistent.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, file)
		pkg.indexComments(file)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the first error too; soft errors are already collected.
	pkg.Types, _ = conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	return pkg, nil
}

// indexComments records each comment's text by file and line.
func (pkg *Package) indexComments(file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			pos := pkg.Fset.Position(c.Pos())
			m := pkg.commentLines[pos.Filename]
			if m == nil {
				m = map[int]string{}
				pkg.commentLines[pos.Filename] = m
			}
			m[pos.Line] += c.Text
		}
	}
}
