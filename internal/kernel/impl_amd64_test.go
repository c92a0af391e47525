//go:build !race && amd64

package kernel

import (
	"slices"
	"testing"
)

// TestVectorImplInstalled fails when the CPU qualifies and the table is not
// its best candidate: verifyAndInstall refuses a candidate as a unit and
// falls back to the next, so one wrong lane in one kernel would otherwise
// leave every test passing on the slower set (or comparing scalar with
// scalar), green and at a fraction of the speed.
func TestVectorImplInstalled(t *testing.T) {
	want := Impl()
	switch {
	case hasAVX512:
		want = "avx512"
	case hasAVX2:
		want = "avx2"
	}
	if Impl() != want {
		t.Fatalf("the CPU qualifies for %q but the dispatch table is %q: %v", want, Impl(), probeErr)
	}
}

// TestEveryCandidateProbes runs the install probe on every candidate this
// CPU can execute, not only the installed one: on an AVX-512 host the AVX2
// set (and its 4 x 16 split of the tile) is never installed, and would
// otherwise go untested.
func TestEveryCandidateProbes(t *testing.T) {
	var want, got []string
	if hasAVX512 {
		want = append(want, "avx512")
	}
	if hasAVX2 {
		want = append(want, "avx2")
	}
	for _, c := range candidates() {
		got = append(got, c.name)
		if err := verifyImpls(c); err != nil {
			t.Errorf("candidate %s fails its probes: %v", c.name, err)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("candidates %q, want %q", got, want)
	}
}
