package gen

import (
	"math"
	"testing"
)

// skipRows draws rows rows of pairs pairs each at p through pairRow.hits,
// row i on its own substream, and returns the hit count and a histogram of
// the misses before each hit (the last run of misses in a row, cut off by
// the row's end, is not a gap): bins of equal probability under
// Geometric(p), edges[b] the least gap of bin b+1.
func skipRows(p float64, rows, pairs int, edges []int) (hits int, gaps []int) {
	gaps = make([]int, len(edges)+1)
	var keys []uint64
	for i := 0; i < rows; i++ {
		keys = pairRow{i, i + 1 + pairs, math.Log1p(-p)}.hits(keys[:0], 99)
		last := i
		for _, key := range keys {
			j := int(uint32(key))
			b := 0
			for b < len(edges) && j-last-1 >= edges[b] {
				b++
			}
			gaps[b]++
			last = j
		}
		hits += len(keys)
	}
	return hits, gaps
}

// TestAffinitySkipIsBernoulli holds phase 1's geometric skip to one
// Bernoulli(p) trial per pair, at a sparse, a moderate and an even p: the
// hits are within 4σ of p·pairs, and a χ² test over the gaps' histogram does
// not reject Geometric(p) at the 10⁻⁴ level.
func TestAffinitySkipIsBernoulli(t *testing.T) {
	for _, c := range []struct {
		p           float64
		rows, pairs int
	}{{1e-4, 20, 10_000_000}, {0.01, 20, 1_000_000}, {0.5, 5, 100_000}} {
		// Bin edges at the Geometric(p) quantiles m/20; equal ones merge.
		q := 1 - c.p
		var edges []int
		for m := 1; m < 20; m++ {
			if e := int(math.Ceil(math.Log(1-float64(m)/20) / math.Log(q))); len(edges) == 0 || e > edges[len(edges)-1] {
				edges = append(edges, e)
			}
		}
		hits, gaps := skipRows(c.p, c.rows, c.pairs, edges)
		n := float64(c.rows) * float64(c.pairs)
		if sigma := math.Sqrt(n * c.p * q); math.Abs(float64(hits)-n*c.p) > 4*sigma {
			t.Errorf("p=%v: %d hits in %.0f pairs, want %.0f ± 4·%.1f", c.p, hits, n, n*c.p, sigma)
		}
		chi2, lo := 0.0, 0
		for b, observed := range gaps {
			pb := math.Pow(q, float64(lo)) // P(gap ≥ lo) − P(gap ≥ hi)
			if b < len(edges) {
				pb -= math.Pow(q, float64(edges[b]))
				lo = edges[b]
			}
			expected := pb * float64(hits)
			chi2 += (float64(observed) - expected) * (float64(observed) - expected) / expected
		}
		// The χ² quantile at 1 − 10⁻⁴ (z = 3.719), Wilson–Hilferty.
		k := float64(len(gaps) - 1)
		if crit := k * math.Pow(1-2/(9*k)+3.719*math.Sqrt(2/(9*k)), 3); chi2 > crit {
			t.Errorf("p=%v: χ² %.1f over %d bins exceeds %.1f: the gaps are not Geometric(p)", c.p, chi2, len(gaps), crit)
		}
	}
}

// TestAffinitySkipEnds: a row at p = 1 holds every pair and a row at p = 0
// none, as does one at a negative or NaN p (a negative CommunityFrac), and a graph whose blocks' p all clamp to 1 (a huge CommunityFrac),
// or are all 0, gets exactly those hits from phase 1.
func TestAffinitySkipEnds(t *testing.T) {
	if got := (pairRow{3, 60, math.Log1p(-1)}).hits(nil, 1); len(got) != 56 || got[0] != 3<<32|4 || got[55] != 3<<32|59 {
		t.Fatalf("p = 1: %d hits, want the 56 pairs (3, 4..59)", len(got))
	}
	for _, p := range []float64{0, -0.5, math.NaN()} {
		if got := (pairRow{3, 60, math.Log1p(-p)}).hits(nil, 1); len(got) != 0 {
			t.Fatalf("p = %v: %d hits, want none", p, len(got))
		}
	}
	for _, frac := range []float64{0, 1e9} {
		cfg := BTERConfig{N: 300, AvgDegree: 6, PowerLawExp: 2.4, CommunityFrac: frac, Seed: 3}
		degs, want := degreeSequence(cfg), 0
		for start := 0; start < cfg.N; {
			size := min(degs[start]+1, cfg.N-start)
			if frac > 0 {
				want += size * (size - 1) / 2
			}
			start += size
		}
		_, hits := affinity(cfg, 1)
		if len(hits[0]) != want {
			t.Errorf("CommunityFrac %v: %d hits, want %d", frac, len(hits[0]), want)
		}
	}
}
