package gen

import (
	"math/bits"

	"mggcn/internal/pool"
)

// onLanes runs run(k, s) for each of len(at)−1 lanes, lane k on the stream
// start jumped by at[k] words, and returns where the last lane ended. A
// redraw (about 2⁻⁵⁴ per word) moves every later draw by one word: a lane
// that does not end where the next one started hands its true state on, and
// the next lane runs again from it, so run must rewrite what it wrote.
func onLanes(start stream, at []int, run func(k int, s *stream)) stream {
	lanes := len(at) - 1
	ends := make([]stream, lanes)
	pool.ForChunks(lanes, lanes, func(k int) {
		s := start // each lane's own copy: lanes that wrote one array would share its cache lines
		s.jump(at[k])
		run(k, &s)
		ends[k] = s
	})
	for k := 1; k < lanes; k++ {
		if e := ends[k-1]; e.n0+e.pos != start.n0+start.pos+at[k] {
			ends[k] = e
			run(k, &ends[k])
		}
	}
	return ends[lanes-1]
}

// jump advances s by m words, the draws of m Bernoulli trials without a
// redraw, without drawing them. The recurrence x[j+607] = x[j] + x[j+334] is
// linear over Z/2⁶⁴, so the word d past x[n0] is Σᵢ cᵢ·x[n0+i] where
// Σᵢ cᵢzⁱ = z^d mod z⁶⁰⁷ − z³³⁴ − 1, and the new buf is that sum shifted
// along x[n0..n0+1212]: buf and one refill of a copy, so any state jumps, a
// crafted one too. The new buf starts at the next draw.
func (s *stream) jump(m int) {
	d := s.pos + m
	if d <= len(s.buf) {
		s.pos = d
		return
	}
	var x [2*607 - 1]uint64
	next := *s
	next.refill(0, 0)
	copy(x[:], s.buf[:])
	copy(x[len(s.buf):], next.buf[:])
	c := zPow(uint64(d))
	s.buf = [607]uint64{}
	for i, ci := range c {
		for j, xj := range x[i : i+len(s.buf)] {
			s.buf[j] += ci * xj
		}
	}
	s.n0, s.pos = s.n0+d, 0
}

// zPow returns z^m mod z⁶⁰⁷ − z³³⁴ − 1 by square-and-multiply from m's
// leading bits, which while their value v is below 607 are z^v itself.
func zPow(m uint64) (c [607]uint64) {
	b, v := bits.Len64(m), uint64(0)
	for ; b > 0 && 2*v+m>>(b-1)&1 < uint64(len(c)); b-- {
		v = 2*v + m>>(b-1)&1
	}
	c[v] = 1
	for ; b > 0; b-- {
		var p [2 * 607]uint64 // c², each cross term added once, doubled
		for i, ci := range c {
			p[2*i] += ci * ci
			row, ci2 := p[2*i+1:], 2*ci
			for j, cj := range c[i+1:] {
				row[j] += ci2 * cj
			}
		}
		if m>>(b-1)&1 == 1 { // times z
			copy(p[1:], p[:])
			p[0] = 0
		}
		// z^k = z^(k−273) + z^(k−607) for k ≥ 607, folded k descending so a
		// term moved onto a k still at or above 607 is folded again.
		for k := len(p) - 1; k >= len(c); k-- {
			p[k-273] += p[k]
			p[k-607] += p[k]
		}
		copy(c[:], p[:])
	}
	return c
}
