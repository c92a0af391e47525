//go:build !race && (amd64 || arm64)

package kernel

import (
	"math"
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
