package gen

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// lastDraw is the largest Float64 math/rand returns, 1 − 2⁻⁵³.
var lastDraw = math.Nextafter(1, 0)

// cumulative returns the running sums of weights, as BTER's phase 2 builds
// its table.
func cumulative(weights []float64) []float64 {
	cdf := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		total += w
		cdf[i] = total
	}
	return cdf
}

// checkGuided fails unless the guide table's search of u agrees with
// sort.SearchFloat64s on the same table.
func checkGuided(t testing.TB, g *guide, u float64) {
	t.Helper()
	want := sort.SearchFloat64s(g.cdf, u*g.cdf[len(g.cdf)-1])
	if got := g.search(u); got != want {
		t.Fatalf("n=%d u=%v: guided search %d, sort.SearchFloat64s %d", len(g.cdf), u, got, want)
	}
}

// guideWeights are the weight shapes the differential test and the fuzz
// seeds cover: one vertex, all weight on the first or the last vertex, runs
// of zero weight, and a power-law-like head.
var guideWeights = [][]float64{
	{1},
	{0.25},
	{5, 0, 0, 0, 0, 0, 0},
	{0, 0, 0, 0, 0, 0, 5},
	{0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0},
	{1e6, 1, 1, 1, 1e-9, 0, 0, 1},
	{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
}

func TestGuidedSearchMatchesSearchFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tables := append([][]float64{}, guideWeights...)
	for trial := 0; trial < 300; trial++ {
		w := make([]float64, 1+rng.Intn(200))
		for i := range w {
			switch r := rng.Intn(4); {
			case r == 0: // zero-weight runs
			case r == 1:
				w[i] = float64(rng.Intn(8))
			default:
				w[i] = math.Ldexp(rng.Float64(), rng.Intn(40)-20)
			}
		}
		tables = append(tables, w)
	}
	// Equal weights put cdf values on bucket edges, where u·m and the edges
	// round: u just below an edge can land in the next bucket, whose start is
	// past the answer, and only the walk back finds it.
	for n := 1; n <= 64; n++ {
		for _, c := range []float64{1, 0.1, 0.7, 3} {
			w := make([]float64, n)
			for i := range w {
				w[i] = c
			}
			tables = append(tables, w, append(w[:n/2:n/2], make([]float64, n-n/2)...))
		}
	}
	for _, w := range tables {
		g := newGuide(cumulative(w))
		for _, u := range []float64{0, lastDraw, math.Nextafter(0, 1), 0.5} {
			checkGuided(t, g, u)
		}
		// Every bucket edge and the three floats on either side of it.
		for b, m := 0, len(g.start)-1; b <= m; b++ {
			for _, toward := range []float64{0, 1} {
				u := float64(b) / float64(m)
				for k := 0; k < 3; k++ {
					if u = math.Nextafter(u, toward); u >= 0 && u < 1 {
						checkGuided(t, g, u)
					}
				}
			}
		}
		for i := 0; i < 50; i++ {
			checkGuided(t, g, rng.Float64())
		}
	}
}

// FuzzGuidedSearch holds the guide table's search to sort.SearchFloat64s on
// fuzzed weight tables and draws. A weight byte b is (b & 15)·2^((b >> 4) − 8),
// zero runs included; u is read as rng.RNG turns a draw into a Float64, so
// it ranges over the values BTER's draws take, the largest below 1 included.
func FuzzGuidedSearch(f *testing.F) {
	encode := func(w []float64) []byte {
		out := make([]byte, len(w))
		for i, x := range w {
			if x > 0 {
				out[i] = 0x81 // 1·2⁰
			}
		}
		return out
	}
	for _, w := range guideWeights {
		for _, bits := range []uint64{0, 1<<64 - 1, 1 << 62} {
			f.Add(encode(w), bits)
		}
	}
	f.Fuzz(func(t *testing.T, weights []byte, bits uint64) {
		if len(weights) == 0 {
			return
		}
		w := make([]float64, len(weights))
		for i, b := range weights {
			w[i] = math.Ldexp(float64(b&15), int(b>>4)-8)
		}
		u := float64(bits>>11) / (1 << 53)
		checkGuided(t, newGuide(cumulative(w)), u)
	})
}
