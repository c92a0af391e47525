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
	bin := filepath.Join(t.TempDir(), "mggcn-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
