//go:build race

package kernel

import "testing"

// TestRaceBuildIsScalar pins the one build that leaves the assembly out: the
// detector cannot see the accesses assembly makes, so under it every kernel
// is the pure-Go table and `go test -race ./...` is the tree's scalar leg.
func TestRaceBuildIsScalar(t *testing.T) {
	if Impl() != "scalar" || ProbeErr() != nil {
		t.Fatalf("dispatch table is %q (probe: %v) under the race detector", Impl(), ProbeErr())
	}
}
