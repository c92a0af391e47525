package tensor

import (
	"math/rand"
	"testing"
)

// Odd shapes for the blocked-kernel tables: k straddling blockK boundaries,
// 1-row/1-col degenerates, odd row counts (the 2-row micro-kernel's tail).
// The last two have k*n*4 > gemmFlatMaxBytes, so they take the multi-panel
// traversal; every other shape fits the flat threshold and runs one panel.
var blockedShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, blockK, 1},
	{2, blockK + 1, 2},
	{3, 2*blockK - 1, 5},
	{5, 7, 1},
	{1, 7, 5},
	{7, 3*blockK + 5, 9},
	{64, 48, 32},
	{5, 3*blockK + 5, 96},
	{3, 2*blockK - 1, 140},
}

// TestBlockedShapesCoverBothTraversals keeps the table honest: effBlockK
// chooses from the operand size alone, so the table has to hold shapes on
// both sides of the threshold for the bit-identity tests to reach both.
func TestBlockedShapesCoverBothTraversals(t *testing.T) {
	var flat, panelled bool
	for _, sh := range blockedShapes {
		if effBlockK(sh.k, sh.n) == sh.k {
			flat = true
		} else if sh.k > blockK {
			panelled = true
		}
	}
	if !flat || !panelled {
		t.Fatalf("blockedShapes: flat traversal covered=%v, multi-panel covered=%v", flat, panelled)
	}
}

// TestGemmBitIdenticalToFlat pins the blocked kernel's contract: cache
// blocking may not change a single bit relative to the flat reference
// (Equal at tolerance 0 — the same bar the replay parity tests hold the
// whole pipeline to).
func TestGemmBitIdenticalToFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range blockedShapes {
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

// TestGemmBitIdenticalToFlatWithZeros exercises the zero-tile skip: a
// ReLU-sparse A (half the entries zeroed) must still match the flat kernel,
// which never skips, at tolerance 0.
func TestGemmBitIdenticalToFlatWithZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomDense(rng, 9, 2*blockK+3)
	for i := range a.Data {
		if rng.Intn(2) == 0 {
			a.Data[i] = 0
		}
	}
	for _, n := range []int{11, 140} { // one panel, then three
		b := randomDense(rng, 2*blockK+3, n)
		blocked := randomDense(rng, 9, n)
		flat := blocked.Clone()
		Gemm(1, a, b, 1, blocked)
		GemmFlat(1, a, b, 1, flat)
		if !Equal(blocked, flat, 0) {
			t.Fatalf("n=%d: zero-skip path diverged from flat kernel", n)
		}
	}
}

// TestGemmTBPairedRowsMatchSingleRowPath pins dot4Pair to dot4: computing C
// rows in pairs must give the same bits as one row at a time (row-sliced
// calls take the single-row path).
func TestGemmTBPairedRowsMatchSingleRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range []int{1, 2, 3, 8, 9} {
		a, b := randomDense(rng, m, 19), randomDense(rng, 6, 19)
		paired := randomDense(rng, m, 6)
		rowAtATime := paired.Clone()
		GemmTB(1.5, a, b, 1, paired)
		for i := 0; i < m; i++ {
			GemmTB(1.5, a.RowSlice(i, i+1), b, 1, rowAtATime.RowSlice(i, i+1))
		}
		if !Equal(paired, rowAtATime, 0) {
			t.Fatalf("m=%d: paired rows != single-row path", m)
		}
	}
}

// TestParallelGemmTAMatchesSequentialBitIdentical: the packed-transpose
// parallel kernel must reproduce GemmTA bit for bit at every worker count —
// it replaces GemmTA at the weight-gradient bind, which the replay parity
// tests compare at tolerance 0.
func TestParallelGemmTAMatchesSequentialBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, sh := range blockedShapes {
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
