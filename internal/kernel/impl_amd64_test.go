//go:build !race && amd64

package kernel

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// mathExpFused reports whether math.Exp runs its FMA path here, the one
// ExpRow's vector bodies mirror: at this input the two paths round apart
// (without FMA, or under GODEBUG=cpu.fma=off, it returns ...bfa6).
func mathExpFused() bool {
	return math.Float64bits(math.Exp(-0.016599999740719795)) == 0x3fef7922a176bfa7
}

// avx is the body names a CPU offers an entry whose avx512 body it can run
// (ok512) and whose avx2 body it can run (ok2), best first.
func avx(ok512, ok2 bool) []string {
	var names []string
	if ok512 {
		names = append(names, "avx512")
	}
	if ok2 {
		names = append(names, "avx2")
	}
	return names
}

// TestVectorImplInstalled fails when an entry does not run the best body the
// CPU offers it. The one entry allowed its fallback is ExpRow on a host whose
// math.Exp is off the fused path its bodies mirror; the probe then refuses
// them, and those must be the only refusals.
func TestVectorImplInstalled(t *testing.T) {
	runsBest(t, "Tile", Tile, tileBodies)
	runsBest(t, "SpMMRow", SpMMRow, spmmRowBodies)
	runsBest(t, "Add", Add, addBodies)
	runsBest(t, "ReLU", ReLU, reluBodies)
	runsBest(t, "ReLUMask", ReLUMask, reluMaskBodies)
	runsBest(t, "AddU64", AddU64, addU64Bodies)
	runsBest(t, "FirstOutside63", FirstOutside63, firstOutside63Bodies)
	runsBest(t, "NormRow", NormRow, normRowBodies)
	fused := mathExpFused()
	if fused {
		runsBest(t, "ExpRow", ExpRow, expRowBodies)
	} else {
		t.Logf("math.Exp is off its fused path, so ExpRow falls back: %v", ProbeErr())
	}
	for _, err := range refused {
		if fused || !strings.Contains(err.Error(), " ExpRow ") {
			t.Errorf("refused: %v", err)
		}
	}
	want := append(avx(hasAVX512, hasAVX2), "scalar")[0]
	if !fused && len(expRowBodies) > 0 {
		want += " (ExpRow scalar)"
	}
	if Impl() != want {
		t.Errorf("the CPU qualifies for %q but the table is %q", want, Impl())
	}
}

// TestVectorImplPerEntryWithoutFusedExp re-runs TestVectorImplInstalled in a
// process whose math.Exp is off its fused path (GODEBUG=cpu.fma=off), where
// ExpRow's bodies are offered but refused: every other entry must keep its
// best body, ProbeErr must name only ExpRow's bodies, and Impl() must be the
// CPU's best tile followed by "(ExpRow scalar)".
func TestVectorImplPerEntryWithoutFusedExp(t *testing.T) {
	if !hasFMA {
		t.Skip("no FMA: ExpRow's bodies are not offered")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestVectorImplInstalled$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "so ExpRow falls back: kernel: ") {
		t.Fatalf("under GODEBUG=cpu.fma=off (%v):\n%s", err, out)
	}
}

// TestEveryCandidateProbes runs the install probe on every body each entry
// is offered, installed or not.
func TestEveryCandidateProbes(t *testing.T) {
	probeEvery(t, "Tile", tileBodies, probeTile, avx(hasAVX512, hasAVX2)...)
	probeEvery(t, "SpMMRow", spmmRowBodies, probeSpMMRow, avx(false, hasAVX2)...)
	probeEvery(t, "Add", addBodies, probeAdd, avx(false, hasAVX2)...)
	probeEvery(t, "ReLU", reluBodies, probeReLU, avx(false, hasAVX2)...)
	probeEvery(t, "ReLUMask", reluMaskBodies, probeReLUMask, avx(false, hasAVX2)...)
	probeEvery(t, "AddU64", addU64Bodies, probeAddU64, avx(false, hasAVX2)...)
	probeEvery(t, "FirstOutside63", firstOutside63Bodies, probeFirstOutside63, avx(false, hasAVX2)...)
	probeEvery(t, "NormRow", normRowBodies, probeNormRow, avx(hasAVX512, hasAVX2)...)
	if !mathExpFused() {
		t.Skip("math.Exp is off its fused path: ExpRow's bodies are refused")
	}
	probeEvery(t, "ExpRow", expRowBodies, probeExpRow, avx(hasAVX512 && hasFMA, hasFMA)...)
}

// FuzzExpRow holds every ExpRow and NormRow body this CPU is offered to the
// scalar bodies bit for bit: fuzzed widths 0..130, misaligned rows, inputs
// spread over [lo, 0] or [0, lo] less a fuzzed row max (so large negatives,
// the subnormal band and overflows), with one special value (NaN, ±Inf, ±0,
// a band edge) planted at a fuzzed position. dst sits inside a guard band
// that must come back untouched.
func FuzzExpRow(f *testing.F) {
	f.Add(uint8(47), uint8(0), float32(0), float32(-20), uint64(1), uint8(255), uint8(0))
	f.Add(uint8(130), uint8(3), float32(2.5), float32(-700), uint64(2), uint8(3), uint8(129))
	f.Add(uint8(9), uint8(1), float32(-1), float32(-760), uint64(3), uint8(0), uint8(8))
	f.Add(uint8(64), uint8(2), float32(1e3), float32(300), uint64(4), uint8(6), uint8(5))
	f.Add(uint8(0), uint8(0), float32(0), float32(0), uint64(5), uint8(1), uint8(0))
	exps := expRowBodies
	if !mathExpFused() {
		exps = nil // the probe refuses them, and nothing runs them
	}
	f.Fuzz(func(t *testing.T, width, off uint8, mx, lo float32, seed uint64, special, pos uint8) {
		const guard = 3
		n, o := int(width)%131, int(off)%4
		src := probeFloats(o+n, seed|1)[o:]
		for j := range src {
			src[j] = lo * (src[j] + 8) / 16 // probeFloats is in [-8, 8)
		}
		if int(special) < len(expSpecials) && n > 0 {
			src[int(pos)%n] = expSpecials[special]
		}
		band64, band32 := make([]float64, o+guard+n+guard)[o:], make([]float32, o+guard+n+guard)[o:]
		for i := range band64 {
			band64[i], band32[i] = float64(i)+0.5, float32(i)+0.5
		}
		want, wantP := slices.Clone(band64), slices.Clone(band32)
		wantSum := expRowScalar(want[guard:guard+n], src, mx)
		scale := 1 / float64(1+seed%1000)
		normRowScalar(wantP[guard:guard+n], want[guard:guard+n], wantSum, scale)
		for _, c := range exps {
			got := slices.Clone(band64)
			sum := c.fn(got[guard:guard+n], src, mx)
			if math.Float64bits(sum) != math.Float64bits(wantSum) {
				t.Fatalf("%s ExpRow n=%d off=%d mx=%v: sum %x, scalar %x", c.name, n, o, mx, math.Float64bits(sum), math.Float64bits(wantSum))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s ExpRow n=%d off=%d mx=%v: dst[%d] = %x, scalar %x", c.name, n, o, mx, i-guard, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		for _, c := range normRowBodies {
			gotP := slices.Clone(band32)
			c.fn(gotP[guard:guard+n], want[guard:guard+n], wantSum, scale)
			for i := range wantP {
				if math.Float32bits(gotP[i]) != math.Float32bits(wantP[i]) {
					t.Fatalf("%s NormRow n=%d off=%d: dst[%d] = %x, scalar %x", c.name, n, o, i-guard, math.Float32bits(gotP[i]), math.Float32bits(wantP[i]))
				}
			}
		}
	})
}

// TestExpRowSweep holds every ExpRow body this CPU is offered to math.Exp on
// 10⁷ inputs swept across [-750, 0] (10⁶ under -short), in rows of 1000: the
// rows inside the normal range run the vector bodies whole, the rest cross
// the subnormal band into zero.
func TestExpRowSweep(t *testing.T) {
	if !mathExpFused() {
		t.Skip("math.Exp is off its fused path: ExpRow's bodies are refused")
	}
	const width = 1000
	total := 10_000_000
	if testing.Short() {
		total /= 10
	}
	src, got := make([]float32, width), make([]float64, width)
	for _, c := range expRowBodies {
		for r := 0; r < total/width; r++ {
			for j := range src {
				src[j] = float32(-750 * float64(r*width+j) / float64(total))
			}
			sum, want := c.fn(got, src, 0), 0.0
			for j, x := range src {
				e := math.Exp(float64(x))
				if math.Float64bits(got[j]) != math.Float64bits(e) {
					t.Fatalf("%s ExpRow(%v) = %x, math.Exp %x", c.name, x, math.Float64bits(got[j]), math.Float64bits(e))
				}
				want += e
			}
			if math.Float64bits(sum) != math.Float64bits(want) {
				t.Fatalf("%s ExpRow row from %v: sum %x, in order %x", c.name, src[0], math.Float64bits(sum), math.Float64bits(want))
			}
		}
	}
}

// BenchmarkExpRow times one softmax row of each ExpRow body this CPU is
// offered, and of the scalar body for reference, at the loss's width, 47
// classes, and at 64, on logits drawn like a trained layer's, less their max.
func BenchmarkExpRow(b *testing.B) {
	for _, c := range slices.Concat(expRowBodies, offer(true, "scalar", expRowScalar)) {
		for _, n := range []int{47, 64} {
			src, dst := probeFloats(n, uint64(n)), make([]float64, n)
			for j := range src {
				src[j] /= 2
			}
			mx := slices.Max(src)
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.fn(dst, src, mx)
				}
			})
		}
	}
}

// TestExpRowBodiesRunWhole: the bit probe cannot tell a softmax row body that
// sends every row to the scalar body from one that runs it, so this asks the
// bodies themselves. A row inside the normal range, [-708, 709] less the row
// max, runs whole; one lane where math.Exp branches sends the row back, in a
// full step and in the opmask tail.
func TestExpRowBodiesRunWhole(t *testing.T) {
	if !mathExpFused() {
		t.Skip("math.Exp is off its fused path: ExpRow's bodies are refused")
	}
	bodies := map[string]func(dst *float64, src *float32, n int, mx float32) (float64, bool){"expRowVec4": expRowVec4}
	if hasAVX512 {
		bodies["expRowVec512"] = expRowVec512
	}
	for name, body := range bodies {
		for _, n := range []int{4, 8, 12, 44, 48} {
			src, dst := probeFloats(n, uint64(n)), make([]float64, n)
			for j := range src {
				src[j] = src[j]*60 - 100 // probeFloats is in [-8, 8)
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
