package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestAllMatchesGolden runs `mggcn-verify all` at default flags in process
// and diffs its verdict lines against testdata/all.golden byte for byte, so
// a verifier whose verdict moves fails the test suite. Regenerate the file
// (go run ./cmd/mggcn-verify all > cmd/mggcn-verify/testdata/all.golden)
// only when a verdict line is meant to change.
func TestAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"all"}, &out); code != 0 {
		t.Fatalf("mggcn-verify all exited %d:\n%s", code, out.String())
	}
	got, wantLines := strings.SplitAfter(out.String(), "\n"), strings.SplitAfter(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		g, w := "", ""
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs from testdata/all.golden:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// TestRunExitCodes pins the exit codes main passes to the shell: a missing
// or unknown pass and an unknown strategy (gat, whose distributed forward is
// gone, among them) exit 1, a bad flag 2.
func TestRunExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 1},
		{[]string{"-json"}, 1},
		{[]string{"bogus", "-n", "20"}, 1},
		{[]string{"san", "-strategy", "nope"}, 1},
		{[]string{"san", "-strategy", "gat"}, 1},
		{[]string{"chaos", "-gpus", "1", "-n", "20"}, 1},
		{[]string{"san", "-no-such-flag"}, 2},
	} {
		var out bytes.Buffer
		if code := run(c.args, &out); code != c.code {
			t.Errorf("mggcn-verify %v exited %d, want %d", c.args, code, c.code)
		}
	}
}
