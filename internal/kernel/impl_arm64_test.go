//go:build !race && arm64

package kernel

import "testing"

// TestVectorImplInstalled fails when an entry with a NEON body (NEON is
// mandatory on arm64) does not run it.
func TestVectorImplInstalled(t *testing.T) {
	runsBest(t, "Tile", Tile, tileBodies)
	runsBest(t, "SpMMRow", SpMMRow, spmmRowBodies)
	runsBest(t, "Add", Add, addBodies)
	runsBest(t, "ReLU", ReLU, reluBodies)
	runsBest(t, "ReLUMask", ReLUMask, reluMaskBodies)
	if Impl() != "neon" || ProbeErr() != nil {
		t.Fatalf("the tile is %q: %v", Impl(), ProbeErr())
	}
}

// TestEveryCandidateProbes runs the install probe on every NEON body.
func TestEveryCandidateProbes(t *testing.T) {
	probeEvery(t, "Tile", tileBodies, probeTile, "neon")
	probeEvery(t, "SpMMRow", spmmRowBodies, probeSpMMRow, "neon")
	probeEvery(t, "Add", addBodies, probeAdd, "neon")
	probeEvery(t, "ReLU", reluBodies, probeReLU, "neon")
	probeEvery(t, "ReLUMask", reluMaskBodies, probeReLUMask, "neon")
}
