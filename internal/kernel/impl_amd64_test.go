//go:build !race && amd64

package kernel

import "testing"

// TestVectorImplInstalled fails when the CPU qualifies and the table is
// still scalar: verifyAndInstall refuses a candidate as a unit, so one wrong
// lane in one kernel would otherwise leave every test comparing scalar with
// scalar, green and at half speed.
func TestVectorImplInstalled(t *testing.T) {
	if hasAVX2() && Impl() != "avx2" {
		t.Fatalf("the CPU has AVX2 but the dispatch table is %q: %v", Impl(), probeErr)
	}
}
