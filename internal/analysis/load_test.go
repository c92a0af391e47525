package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out files under a fresh temp dir and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestFindModule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":          "module example.com/mod\n\ngo 1.24\n",
		"sub/deep/x.keep": "",
	})
	gotRoot, gotPath, err := findModule(filepath.Join(root, "sub", "deep"))
	if err != nil {
		t.Fatalf("findModule: %v", err)
	}
	if gotRoot != root || gotPath != "example.com/mod" {
		t.Fatalf("findModule = (%q, %q), want (%q, example.com/mod)", gotRoot, gotPath, root)
	}
}

func TestFindModuleErrors(t *testing.T) {
	// No go.mod anywhere above a temp dir that is its own little island:
	// walking up from a root-adjacent missing path must fail, not loop.
	if _, _, err := findModule(filepath.Join(string(filepath.Separator), "definitely-not-a-module-root-for-analysis-tests")); err == nil || !strings.Contains(err.Error(), "no go.mod above") {
		t.Fatalf("missing go.mod error = %v", err)
	}

	root := writeTree(t, map[string]string{"go.mod": "// no module directive here\ngo 1.24\n"})
	if _, _, err := findModule(root); err == nil || !strings.Contains(err.Error(), "no module directive") {
		t.Fatalf("directive error = %v", err)
	}
}

func TestNewLoaderResolvesModule(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if ld.ModulePath != "mggcn" {
		t.Fatalf("ModulePath = %q, want mggcn", ld.ModulePath)
	}
	if _, err := os.Stat(filepath.Join(ld.ModuleRoot, "go.mod")); err != nil {
		t.Fatalf("ModuleRoot %q has no go.mod: %v", ld.ModuleRoot, err)
	}
	// The export index must cover the module's own packages and std deps.
	for _, path := range []string{"mggcn/internal/sim", "fmt"} {
		if _, ok := ld.exports[path]; !ok {
			t.Fatalf("export index is missing %q", path)
		}
	}
}

func TestLoadDirErrors(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}

	if _, err := ld.LoadDir("no/such/dir"); err == nil {
		t.Fatal("LoadDir on a missing directory must error")
	}

	// A directory with only test files has nothing to analyze.
	empty := filepath.Join(ld.ModuleRoot, "internal", "analysis", "testdata", "loadtest_empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(empty) })
	if err := os.WriteFile(filepath.Join(empty, "only_test.go"), []byte("package loadtest_empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rel, _ := filepath.Rel(ld.ModuleRoot, empty)
	if _, err := ld.LoadDir(rel); err == nil || !strings.Contains(err.Error(), "no non-test Go files") {
		t.Fatalf("test-only dir error = %v", err)
	}

	// A parse error fails the load outright.
	broken := filepath.Join(ld.ModuleRoot, "internal", "analysis", "testdata", "loadtest_broken")
	if err := os.MkdirAll(broken, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(broken) })
	if err := os.WriteFile(filepath.Join(broken, "bad.go"), []byte("package broken\nfunc {"), 0o644); err != nil {
		t.Fatal(err)
	}
	rel, _ = filepath.Rel(ld.ModuleRoot, broken)
	if _, err := ld.LoadDir(rel); err == nil {
		t.Fatal("LoadDir on a parse error must fail")
	}
}

// Type errors are soft: the package loads, the errors are collected, and
// the resolved part of the syntax remains analyzable.
func TestLoadDirSoftTypeErrors(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir := filepath.Join(ld.ModuleRoot, "internal", "analysis", "testdata", "loadtest_typeerr")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	src := "package loadtest_typeerr\n\nfunc ok() int { return 1 }\n\nfunc bad() int { return undefinedIdent }\n"
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	rel, _ := filepath.Rel(ld.ModuleRoot, dir)
	pkg, err := ld.LoadDir(rel)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("undefined identifier produced no soft type error")
	}
	if len(pkg.Files) != 1 || pkg.Types == nil {
		t.Fatalf("partially resolved package not returned: files=%d types=%v", len(pkg.Files), pkg.Types)
	}
}

func TestLoadDirCommentsAndWantLines(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := ld.LoadDir(filepath.Join("internal", "analysis", "testdata", "src", "taskdep_pos"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	want := pkg.wantLines("taskdep")
	total := 0
	for _, lines := range want {
		total += len(lines)
	}
	if total == 0 {
		t.Fatal("taskdep_pos fixture yielded no want lines")
	}
	if len(pkg.wantLines("no-such-rule")) != 0 {
		t.Fatal("wantLines matched a rule no comment names")
	}
	// suppression: want lines are exactly where the fixture places comments,
	// so the comment index must report those positions as present.
	for file, lines := range want {
		for ln := range lines {
			if _, ok := pkg.commentLines[file][ln]; !ok {
				t.Fatalf("comment index is missing %s:%d", file, ln)
			}
		}
	}
}

func TestLoadAllCoversModule(t *testing.T) {
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
	byPath := map[string]bool{}
	for _, p := range pkgs {
		byPath[p.Path] = true
	}
	for _, want := range []string{"mggcn/internal/sim", "mggcn/internal/core", "mggcn/internal/schedcheck", "mggcn/cmd/mggcn-verify"} {
		if !byPath[want] {
			t.Fatalf("LoadAll missed %q (have %d packages)", want, len(pkgs))
		}
	}
	// testdata fixtures must not leak into the module load.
	for p := range byPath {
		if strings.Contains(p, "testdata") {
			t.Fatalf("LoadAll loaded fixture package %q", p)
		}
	}
	// Import paths come back sorted.
	for i := 1; i < len(pkgs); i++ {
		if pkgs[i-1].Path > pkgs[i].Path {
			t.Fatalf("LoadAll unsorted: %q after %q", pkgs[i].Path, pkgs[i-1].Path)
		}
	}
}

// wantLines returns, per file, the lines tagged with a "// want <rule>"
// comment — the fixture tests' expected-finding annotations.
func (pkg *Package) wantLines(rule string) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for file, lines := range pkg.commentLines {
		for ln, text := range lines {
			if strings.Contains(text, "want "+rule) {
				if out[file] == nil {
					out[file] = map[int]bool{}
				}
				out[file][ln] = true
			}
		}
	}
	return out
}
