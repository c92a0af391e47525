//go:build !race && amd64

package kernel

import (
	"math"
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

// TestExpRowBodiesRunWhole: the bit probe cannot tell a softmax row body that
// sends every row to the scalar body from one that runs it, so this asks the
// bodies themselves. A row inside the normal range, [-708, 709] less the row
// max, runs whole; one lane where math.Exp branches sends the row back, in a
// full step and in the opmask tail.
func TestExpRowBodiesRunWhole(t *testing.T) {
	if !hasFMA {
		t.Skip("no FMA: the softmax rows are the scalar bodies")
	}
	bodies := map[string]func(dst *float64, src *float32, n int, mx float32) (float64, bool){"expRowVec4": expRowVec4}
	if hasAVX512 {
		bodies["expRowVec512"] = expRowVec512
	}
	for name, body := range bodies {
		for _, n := range []int{4, 8, 12, 44, 48} {
			src, dst := fill(t, n, uint64(n)), make([]float64, n)
			for j := range src {
				src[j] = src[j]*60 - 100 // fill is in [-8, 8)
			}
			want := make([]float64, n)
			wantSum := expRowScalar(want, src, 3)
			sum, ok := body(&dst[0], &src[0], n, 3)
			if !ok {
				t.Fatalf("%s sends a row inside the normal range to the scalar body (n=%d)", name, n)
			}
			for j := range want {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s n=%d: dst[%d] = %x, math.Exp %x", name, n, j, math.Float64bits(dst[j]), math.Float64bits(want[j]))
				}
			}
			if math.Float64bits(sum) != math.Float64bits(wantSum) {
				t.Fatalf("%s n=%d: sum %x, scalar %x", name, n, math.Float64bits(sum), math.Float64bits(wantSum))
			}
			for _, p := range []int{0, n - 1} {
				for _, x := range expSpecials {
					if x >= -708.5 && x <= 709 {
						continue
					}
					keep := src[p]
					src[p] = x + 3
					if _, ok := body(&dst[0], &src[0], n, 3); ok {
						t.Errorf("%s n=%d runs a row with %v at %d", name, n, x, p)
					}
					src[p] = keep
				}
			}
		}
	}
}
