package rng

import (
	"math"
	"slices"
	"testing"
)

// TestDrawByIndex: the stream seeded s + k·Gamma is the stream seeded s
// from its k-th draw on, which is how a lane reaches its draws without
// making the ones before them.
func TestDrawByIndex(t *testing.T) {
	for _, s := range []int64{0, 1, -7, math.MaxInt64} {
		r := NewRNG(s)
		for k := uint64(0); k < 100; k++ {
			if got, want := NewRNG(int64(uint64(s)+k*Gamma)).Uint64(), r.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d by index is %#x, by stepping %#x", s, k, got, want)
			}
		}
	}
}

// TestFloat64: a Float64 is the top 53 bits of the draw it consumes, so it
// is exact, in [0, 1), and the largest it can be is 1 − 2⁻⁵³.
func TestFloat64(t *testing.T) {
	r, twin := NewRNG(11), NewRNG(11)
	for range 100000 {
		f, u := r.Float64(), twin.Uint64()
		if f < 0 || f >= 1 || f*(1<<53) != float64(u>>11) {
			t.Fatalf("Float64 %v from draw %#x", f, u)
		}
	}
	if top := float64(uint64(math.MaxUint64)>>11) / (1 << 53); top != 1-0x1p-53 {
		t.Fatalf("the largest Float64 is %v", top)
	}
}

// TestPickKGenerationWraps: across the wrap of PickK's generation counter,
// which clears the scratch, PickK still draws what a map-backed partial
// Fisher–Yates draws from the same stream.
func TestPickKGenerationWraps(t *testing.T) {
	got, want := NewRNG(5), NewRNG(5)
	got.gen = math.MaxUint32 - 2
	for call := 0; call < 6; call++ {
		n, k := 40, 1+call*7
		touched := map[int]int{}
		at := func(i int) int {
			if v, ok := touched[i]; ok {
				return v
			}
			return i
		}
		ref := make([]int, k)
		for i := range ref {
			j := i + want.Intn(n-i)
			ref[i] = at(j)
			touched[j] = at(i)
		}
		if g := got.PickK(make([]int, k), n); !slices.Equal(g, ref) {
			t.Fatalf("call %d (generation %d): PickK drew %v, reference %v", call, got.gen, g, ref)
		}
	}
	if got.gen != 4 {
		t.Fatalf("generation %d after the wrap, want 4", got.gen)
	}
}
