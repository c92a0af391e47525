//go:build !race && arm64

package kernel

import "testing"

// TestVectorImplInstalled fails when the table is still scalar (NEON is
// mandatory on arm64): verifyAndInstall refuses a candidate as a unit, so one
// wrong lane in one kernel would otherwise leave every test comparing scalar
// with scalar, green and at half speed.
func TestVectorImplInstalled(t *testing.T) {
	if Impl() != "neon" {
		t.Fatalf("the dispatch table is %q: %v", Impl(), probeErr)
	}
}
