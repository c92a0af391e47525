//go:build !race && (amd64 || arm64)

package kernel

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// FuzzTileCandidates holds the tile of every candidate this CPU can execute,
// not only the installed one, to the scalar body bit for bit: fuzzed extents
// inside MR x NR, k up to 300, both stride orientations of A, from C and from
// 0, misaligned operands and strides past the extent. C sits inside a guard
// band, and its row gaps and the band must come back untouched.
func FuzzTileCandidates(f *testing.F) {
	f.Add(uint8(MR), uint8(NR), uint16(128), false, false, uint8(0), uint8(0), uint64(1))
	f.Add(uint8(3), uint8(15), uint16(7), true, true, uint8(3), uint8(61), uint64(2))
	f.Add(uint8(1), uint8(1), uint16(0), false, true, uint8(1), uint8(1), uint64(3))
	f.Add(uint8(5), uint8(17), uint16(300), true, false, uint8(2), uint8(200), uint64(4))
	f.Fuzz(func(t *testing.T, rows, cols uint8, k uint16, transA, acc bool, off, pad uint8, seed uint64) {
		const guard = 5
		m, n, kk, o, p := 1+int(rows-1)%MR, 1+int(cols-1)%NR, int(k)%301, int(off)%4, int(pad)
		ars, aks := kk+p%7, 1
		if transA {
			ars, aks = 1, m+p%7
		}
		bs, cs := n+p/7%7, n+p/49%6
		a := fill(t, o+(m-1)*ars+max(kk-1, 0)*aks+1, seed|1)[o:]
		b := fill(t, o+max(kk-1, 0)*bs+n, seed>>1|1)[o:]
		c0 := fill(t, guard+(m-1)*cs+n+guard, seed>>2|1)
		want := append([]float32(nil), c0...)
		tileScalar(m, n, kk, a, ars, aks, b, bs, want[guard:], cs, acc)
		for _, c := range candidates() {
			got := append([]float32(nil), c0...)
			c.tile(m, n, kk, a, ars, aks, b, bs, got[guard:], cs, acc)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s Tile rows=%d cols=%d k=%d strides=(%d,%d) bs=%d cs=%d acc=%v off=%d: c[%d] = %x, scalar %x",
						c.name, m, n, kk, ars, aks, bs, cs, acc, o, i-guard, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	})
}

// FuzzExpRow holds the softmax rows of every candidate this CPU can execute
// to the scalar bodies bit for bit: fuzzed widths 0..130, misaligned rows,
// inputs spread over [lo, 0] or [0, lo] less a fuzzed row max (so large
// negatives, the subnormal band and overflows), with one special value
// (NaN, ±Inf, ±0, a band edge) planted at a fuzzed position. dst sits inside
// a guard band that must come back untouched.
func FuzzExpRow(f *testing.F) {
	f.Add(uint8(47), uint8(0), float32(0), float32(-20), uint64(1), uint8(255), uint8(0))
	f.Add(uint8(130), uint8(3), float32(2.5), float32(-700), uint64(2), uint8(3), uint8(129))
	f.Add(uint8(9), uint8(1), float32(-1), float32(-760), uint64(3), uint8(0), uint8(8))
	f.Add(uint8(64), uint8(2), float32(1e3), float32(300), uint64(4), uint8(6), uint8(5))
	f.Add(uint8(0), uint8(0), float32(0), float32(0), uint64(5), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, width, off uint8, mx, lo float32, seed uint64, special, pos uint8) {
		const guard = 3
		n, o := int(width)%131, int(off)%4
		src := fill(t, o+n, seed|1)[o:]
		for j := range src {
			src[j] = lo * (src[j] + 8) / 16 // fill is in [-8, 8)
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
		for _, c := range candidates() {
			got, gotP := slices.Clone(band64), slices.Clone(band32)
			sum := c.expRow(got[guard:guard+n], src, mx)
			if math.Float64bits(sum) != math.Float64bits(wantSum) {
				t.Fatalf("%s ExpRow n=%d off=%d mx=%v: sum %x, scalar %x", c.name, n, o, mx, math.Float64bits(sum), math.Float64bits(wantSum))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s ExpRow n=%d off=%d mx=%v: dst[%d] = %x, scalar %x", c.name, n, o, mx, i-guard, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			c.normRow(gotP[guard:guard+n], want[guard:guard+n], wantSum, scale)
			for i := range wantP {
				if math.Float32bits(gotP[i]) != math.Float32bits(wantP[i]) {
					t.Fatalf("%s NormRow n=%d off=%d: dst[%d] = %x, scalar %x", c.name, n, o, i-guard, math.Float32bits(gotP[i]), math.Float32bits(wantP[i]))
				}
			}
		}
	})
}

// TestExpRowSweep holds every candidate's ExpRow to math.Exp on 10⁷ inputs
// swept across [-750, 0] (10⁶ under -short), in rows of 1000: the rows
// inside the normal range run the vector bodies whole, the rest cross the
// subnormal band into zero.
func TestExpRowSweep(t *testing.T) {
	const width = 1000
	total := 10_000_000
	if testing.Short() {
		total /= 10
	}
	src, got := make([]float32, width), make([]float64, width)
	for _, c := range candidates() {
		for r := 0; r < total/width; r++ {
			for j := range src {
				src[j] = float32(-750 * float64(r*width+j) / float64(total))
			}
			sum, want := c.expRow(got, src, 0), 0.0
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

// BenchmarkExpRow times one softmax row of each candidate's ExpRow, and of
// the scalar body for reference, at the loss's width, 47 classes, and at 64,
// on logits drawn like a trained layer's, less their max.
func BenchmarkExpRow(b *testing.B) {
	for _, c := range append(candidates(), impls{name: "scalar", expRow: expRowScalar}) {
		for _, n := range []int{47, 64} {
			src, dst := make([]float32, n), make([]float64, n)
			s := uint64(n)
			for j := range src {
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				src[j] = float32(int32(s)) / (1 << 29)
			}
			mx := slices.Max(src)
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.expRow(dst, src, mx)
				}
			})
		}
	}
}
