//go:build !race && (amd64 || arm64)

package kernel

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// probeEvery runs the entry's probe on every body this CPU is offered for
// it, not only the installed one (on an AVX-512 host the avx2 tile and rows
// are never installed, and would otherwise go untested), and checks they are
// the bodies want names, in order.
func probeEvery[F any](t *testing.T, entry string, bodies []body[F], probe func(F) error, want ...string) {
	t.Helper()
	var got []string
	for _, b := range bodies {
		got = append(got, b.name)
		if err := probe(b.fn); err != nil {
			t.Errorf("%s %s fails its probe: %v", b.name, entry, err)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s is offered %q, want %q", entry, got, want)
	}
}

// runsBest fails unless the entry runs the first body it is offered:
// install falls back along an entry's bodies, so one wrong lane would
// otherwise leave every test passing on a slower body (or comparing scalar
// with scalar), green and at a fraction of the speed. Function values
// compare by their code pointers.
func runsBest[F any](t *testing.T, entry string, fn F, bodies []body[F]) {
	t.Helper()
	if len(bodies) > 0 && reflect.ValueOf(fn).Pointer() != reflect.ValueOf(bodies[0].fn).Pointer() {
		t.Errorf("the CPU offers %s %s but the table runs another body: %v", bodies[0].name, entry, ProbeErr())
	}
}

// FuzzTileCandidates holds every tile body this CPU is offered, not only the
// installed one, to the scalar body bit for bit: fuzzed extents
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
		a := probeFloats(o+(m-1)*ars+max(kk-1, 0)*aks+1, seed|1)[o:]
		b := probeFloats(o+max(kk-1, 0)*bs+n, seed>>1|1)[o:]
		c0 := probeFloats(guard+(m-1)*cs+n+guard, seed>>2|1)
		want := append([]float32(nil), c0...)
		tileScalar(m, n, kk, a, ars, aks, b, bs, want[guard:], cs, acc)
		for _, c := range tileBodies {
			got := append([]float32(nil), c0...)
			c.fn(m, n, kk, a, ars, aks, b, bs, got[guard:], cs, acc)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s Tile rows=%d cols=%d k=%d strides=(%d,%d) bs=%d cs=%d acc=%v off=%d: c[%d] = %x, scalar %x",
						c.name, m, n, kk, ars, aks, bs, cs, acc, o, i-guard, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	})
}

// FuzzSpMMRowModes holds every row body this CPU is offered, not only the
// installed one, to the scalar body over fuzzed strip widths, entry counts,
// columns (past the row too, where the look-ahead reads), value forms and
// values: the scale's bytes are float32 bits, so every special value turns
// up, and they are also written into X. Results agree bit for bit but for
// which NaN survives, which is not part of the contract.
func FuzzSpMMRowModes(f *testing.F) {
	f.Add(uint8(63), uint8(2), uint8(3), true, []byte{0, 1, 1, 2, 0}, []byte{0, 0, 0x80, 0x3f, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0}, uint64(1))
	f.Add(uint8(7), uint8(1), uint8(1), false, []byte{2}, []byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0x80, 0xff, 0xff, 0x7f, 0x7f}, uint64(2))
	f.Add(uint8(40), uint8(0), uint8(30), true, make([]byte, 40), []byte{1, 0, 0, 0, 0xdb, 0x0f, 0x49, 0x40}, uint64(3))
	f.Add(uint8(16), uint8(3), uint8(4), false, []byte{1, 0, 1, 0, 1}, []byte{0, 0, 0x20, 0x41}, uint64(4))
	f.Fuzz(func(t *testing.T, width, form, n uint8, acc bool, colBytes, scaleBytes []byte, seed uint64) {
		if len(colBytes) == 0 || len(scaleBytes) < 4 {
			return
		}
		w := 1 + int(width)%SpMMStrip
		scale := make([]float32, min(len(scaleBytes)/4, 64))
		for i := range scale {
			b := scaleBytes[4*i:]
			scale[i] = math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		}
		xrows, xs := len(scale), w+1
		cols := make([]int32, min(len(colBytes), 256))
		for k := range cols {
			cols[k] = int32(colBytes[k]) % int32(xrows)
		}
		x := probeFloats(xrows*xs, seed|1)
		for i, v := range scale {
			x[(i*13)%len(x)] = v
		}
		var vals []float32
		vf := ValForm(form % 3)
		switch {
		case form%4 == 3: // ones
		case vf == PerEntry:
			vals = make([]float32, len(cols))
			for k := range vals {
				vals[k] = scale[k%len(scale)]
			}
		case vf == RowConst:
			vals = scale[int(seed%uint64(xrows)):][:1]
		default:
			vals = scale
		}
		rowN := int(n) % (len(cols) + 1)
		c0 := probeFloats(2+w+2, seed>>1|1)
		want := append([]float32(nil), c0...)
		spmmRowScalar(want[2:2+w], x, xs, xrows, cols, vals, vf, rowN, acc)
		for _, c := range spmmRowBodies {
			got := append([]float32(nil), c0...)
			c.fn(got[2:2+w], x, xs, xrows, cols, vals, vf, rowN, acc)
			for i := range want {
				if g, e := got[i], want[i]; math.Float32bits(g) != math.Float32bits(e) && !(g != g && e != e) {
					t.Fatalf("%s SpMMRow w=%d form=%d n=%d of %d acc=%v: c[%d] = %x, scalar %x",
						c.name, w, vf, rowN, len(cols), acc, i-2, math.Float32bits(g), math.Float32bits(e))
				}
			}
		}
	})
}
