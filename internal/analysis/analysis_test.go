package analysis

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"
)

// loadFixture parses and type-checks one fixture package under
// testdata/src. Fixtures are real, compilable Go that imports the module's
// own packages, so a type error in a fixture is a test bug, not a finding.
func loadFixture(t *testing.T, ld *Loader, name string) *Package {
	t.Helper()
	pkg, err := ld.LoadDir(filepath.Join("internal", "analysis", "testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", name, pkg.TypeErrors)
	}
	return pkg
}

// findingLines collapses findings to the set of "file:line" keys the
// // want comments are matched against.
func findingLines(pkg *Package, fs []Finding) map[string]bool {
	got := map[string]bool{}
	for _, f := range fs {
		got[fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)] = true
	}
	return got
}

func wantLineSet(pkg *Package, rule string) map[string]bool {
	want := map[string]bool{}
	for file, lines := range pkg.wantLines(rule) {
		for line := range lines {
			want[fmt.Sprintf("%s:%d", filepath.Base(file), line)] = true
		}
	}
	return want
}

func sortedKeys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestRules runs every analyzer against its positive fixture (each
// // want <rule> line must produce exactly one reported line, nothing
// extra) and its clean fixture (zero findings).
func TestRules(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}

	cases := []struct {
		rule *Analyzer
		pos  string
		ok   string
	}{
		{TaskDep, "taskdep_pos", "taskdep_ok"},
		{BufAlias, "bufalias_pos", "bufalias_ok"},
		{RNGDeterminism, "rng_pos", "rng_ok"},
		{FloatEq, "floateq_pos", "floateq_ok"},
		{BindCapture, "bindcapture_pos", "bindcapture_ok"},
		{AccessDecl, "accessdecl_pos", "accessdecl_ok"},
		{GroupConsist, "groupconsist_pos", "groupconsist_ok"},
		{SlotDecl, "slotdecl_pos", "slotdecl_ok"},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.rule.Name+"/pos", func(t *testing.T) {
			pkg := loadFixture(t, ld, tc.pos)
			got := findingLines(pkg, tc.rule.Run(pkg))
			want := wantLineSet(pkg, tc.rule.Name)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no // want %s comments", tc.pos, tc.rule.Name)
			}
			for _, k := range sortedKeys(want) {
				if !got[k] {
					t.Errorf("%s: expected %s finding at %s, got none", tc.pos, tc.rule.Name, k)
				}
			}
			for _, k := range sortedKeys(got) {
				if !want[k] {
					t.Errorf("%s: unexpected %s finding at %s", tc.pos, tc.rule.Name, k)
				}
			}
		})
		t.Run(tc.rule.Name+"/ok", func(t *testing.T) {
			pkg := loadFixture(t, ld, tc.ok)
			if fs := tc.rule.Run(pkg); len(fs) > 0 {
				for _, f := range fs {
					t.Errorf("%s: unexpected finding %s:%d: %s", tc.ok, filepath.Base(f.Pos.Filename), f.Pos.Line, f.Msg)
				}
			}
		})
	}
}

// TestCrossRuleSilence pins down rule independence: a positive fixture for
// one rule must not trip any other rule. This catches over-broad matching
// (e.g. accessdecl firing on a closure another rule's fixture binds).
func TestCrossRuleSilence(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	fixtures := []string{
		"taskdep_pos", "taskdep_ok",
		"bufalias_pos", "bufalias_ok",
		"rng_pos", "rng_ok",
		"floateq_pos", "floateq_ok",
		"bindcapture_pos", "bindcapture_ok",
		"accessdecl_pos", "accessdecl_ok",
		"groupconsist_pos", "groupconsist_ok",
		"slotdecl_pos", "slotdecl_ok",
	}
	for _, name := range fixtures {
		pkg := loadFixture(t, ld, name)
		for _, a := range Analyzers() {
			got := findingLines(pkg, a.Run(pkg))
			want := wantLineSet(pkg, a.Name)
			for _, k := range sortedKeys(got) {
				if !want[k] {
					t.Errorf("%s: rule %s fired at %s without a // want comment", name, a.Name, k)
				}
			}
		}
	}
}

// TestRepoClean asserts the repository itself is vet-clean: the dependency
// threading and the vet:ok suppressions must keep every rule quiet.
func TestRepoClean(t *testing.T) {
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
	if len(pkgs) == 0 {
		t.Fatal("LoadAll returned no packages")
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("package %s has type errors: %v", pkg.Path, pkg.TypeErrors)
		}
		for _, a := range Analyzers() {
			for _, f := range a.Run(pkg) {
				t.Errorf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
			}
		}
	}
}
