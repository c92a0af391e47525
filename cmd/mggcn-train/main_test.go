package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSyntheticFlagValidation runs the built command with each generator
// flag out of range: it must exit 1 with one line on stderr naming the
// flags, not die inside the generator with a goroutine dump.
func TestSyntheticFlagValidation(t *testing.T) {
	bin := build(t)
	for _, bad := range [][]string{{"-n", "0"}, {"-features", "0"}, {"-classes", "0"}, {"-degree", "-3"}} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-synthetic", "-epochs", "1"}, bad...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		msg := strings.TrimSpace(stderr.String())
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err %v, want exit status 1", bad, err)
		}
		if strings.Count(msg, "\n") != 0 || !strings.Contains(msg, "-synthetic needs positive") {
			t.Errorf("%v: stderr is not the one-line refusal:\n%s", bad, msg)
		}
	}
}

// TestSampledDefaultWidth: a sampled run without -hidden trains the sampled
// model's default width, not the full-batch default, and one with -hidden
// trains what it asks for. The banner names the width.
func TestSampledDefaultWidth(t *testing.T) {
	bin := build(t)
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{nil, "(hidden 128)"},
		{[]string{"-hidden", "48"}, "(hidden 48)"},
	} {
		args := append([]string{"-synthetic", "-n", "300", "-phantom", "-epochs", "1", "-sampled"}, tc.flags...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.flags, err, out)
		}
		if !strings.Contains(string(out), "sampled training: 3 layers "+tc.want) {
			t.Errorf("%v: banner does not say %s:\n%s", tc.flags, tc.want, out)
		}
	}
}

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mggcn-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
