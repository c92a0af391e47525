package tensor

import (
	"math/rand"
	"testing"
)

// Odd shapes for the bit-identity tables: k straddling the Aᵀ*B panel
// boundaries, 1-row/1-col degenerates, row counts off the tile height, column
// counts off the strip width.
var oddShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, kPanel, 1},
	{2, kPanel + 1, 2},
	{3, 2*kPanel - 1, 5},
	{5, 7, 1},
	{1, 7, 5},
	{7, 3*kPanel + 5, 9},
	{64, 48, 32},
	{5, 3*kPanel + 5, 96},
	{3, 2*kPanel - 1, 140},
}

// TestGemmBitIdenticalToFlat pins the tiled kernel's contract: tiling and
// blocking may not change a single bit relative to the flat reference
// (Equal at tolerance 0 — the same bar the replay parity tests hold the
// whole pipeline to).
func TestGemmBitIdenticalToFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range oddShapes {
		for _, alpha := range []float32{1, 0.75} {
			for _, beta := range []float32{0, 1} {
				a, b := randomDense(rng, sh.m, sh.k), randomDense(rng, sh.k, sh.n)
				blocked := randomDense(rng, sh.m, sh.n)
				flat := blocked.Clone()
				Gemm(alpha, a, b, beta, blocked)
				GemmFlat(alpha, a, b, beta, flat)
				if !Equal(blocked, flat, 0) {
					t.Fatalf("m=%d k=%d n=%d alpha=%g beta=%g: blocked != flat",
						sh.m, sh.k, sh.n, alpha, beta)
				}
			}
		}
	}
}

// TestGemmBitIdenticalToFlatWithZeros: a ReLU-sparse A (half the entries
// zeroed) must still match the flat kernel, which never skips a zero, at
// tolerance 0.
func TestGemmBitIdenticalToFlatWithZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomDense(rng, 9, 2*kPanel+3)
	for i := range a.Data {
		if rng.Intn(2) == 0 {
			a.Data[i] = 0
		}
	}
	for _, n := range []int{11, 140} {
		b := randomDense(rng, 2*kPanel+3, n)
		blocked := randomDense(rng, 9, n)
		flat := blocked.Clone()
		Gemm(1, a, b, 1, blocked)
		GemmFlat(1, a, b, 1, flat)
		if !Equal(blocked, flat, 0) {
			t.Fatalf("n=%d: sparse A diverged from flat kernel", n)
		}
	}
}

// TestParallelGemmTAMatchesSequentialBitIdentical: the row-split kernel
// must reproduce GemmTA bit for bit at every worker count —
// it replaces GemmTA at the weight-gradient bind, which the replay parity
// tests compare at tolerance 0.
func TestParallelGemmTAMatchesSequentialBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, sh := range oddShapes {
		// A is k x m here: the product is Aᵀ(m x k) * B(k x n).
		for _, beta := range []float32{0, 1} {
			a, b := randomDense(rng, sh.k, sh.m), randomDense(rng, sh.k, sh.n)
			c0 := randomDense(rng, sh.m, sh.n)
			want := c0.Clone()
			GemmTA(1.25, a, b, beta, want)
			for _, workers := range []int{1, 2, 8} {
				par := c0.Clone()
				ParallelGemmTA(1.25, a, b, beta, par, workers)
				if !Equal(par, want, 0) {
					t.Fatalf("k=%d m=%d n=%d beta=%g workers=%d: parallel != sequential",
						sh.k, sh.m, sh.n, beta, workers)
				}
			}
		}
	}
}

// TestParallelGemmTAAgainstNaiveOracle checks absolute correctness (not
// just flat-vs-blocked agreement) via the dense triple loop.
func TestParallelGemmTAAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 10; trial++ {
		m, k, n := rng.Intn(15)+1, rng.Intn(90)+1, rng.Intn(15)+1
		a := randomDense(rng, k, m)
		b := randomDense(rng, k, n)
		c := randomDense(rng, m, n)
		want := c.Clone()
		ParallelGemmTA(1.5, a, b, 0.5, c, 4)
		naiveGemm(1.5, a.Transpose(), b, 0.5, want)
		if MaxAbsDiff(c, want) > 1e-3 {
			t.Fatalf("trial %d (%dx%dx%d): diff %g", trial, m, k, n, MaxAbsDiff(c, want))
		}
	}
}

func TestParallelGemmTAPhantomNoOp(t *testing.T) {
	ParallelGemmTA(1, NewPhantom(4, 3), NewPhantom(4, 5), 0, NewPhantom(3, 5), 4)
}

func TestParallelGemmTAShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	ParallelGemmTA(1, NewDense(4, 3), NewDense(5, 2), 0, NewDense(3, 2), 2)
}
