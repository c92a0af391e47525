package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference triple loop used to validate the blocked kernels.
func naiveGemm(alpha float32, a, b *Dense, beta float32, c *Dense) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			var s float32
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m, k, n := rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(20)+1
		a, b := randomDense(rng, m, k), randomDense(rng, k, n)
		c1 := randomDense(rng, m, n)
		want := c1.Clone()
		alpha, beta := float32(rng.NormFloat64()), float32(rng.NormFloat64())
		Gemm(alpha, a, b, beta, c1)
		naiveGemm(alpha, a, b, beta, want)
		if MaxAbsDiff(c1, want) > 1e-3 {
			t.Fatalf("trial %d (%dx%dx%d): diff %g", trial, m, k, n, MaxAbsDiff(c1, want))
		}
	}
}

func TestGemmBetaZeroOverwritesGarbage(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 2)
	c := NewDense(2, 2)
	c.Fill(float32(1e30)) // must be fully overwritten with beta=0
	Gemm(1, a, b, 0, c)
	for i := range c.Data {
		if c.Data[i] != 0 {
			t.Fatalf("beta=0 did not overwrite element %d", i)
		}
	}
}

func TestGemmLargeK(t *testing.T) {
	// k far beyond one tile call's usual extent.
	rng := rand.New(rand.NewSource(8))
	a, b := randomDense(rng, 3, 3*kPanel+5), randomDense(rng, 3*kPanel+5, 4)
	c := NewDense(3, 4)
	want := NewDense(3, 4)
	Gemm(1, a, b, 0, c)
	naiveGemm(1, a, b, 0, want)
	if MaxAbsDiff(c, want) > 1e-2 {
		t.Fatalf("large k mismatch: %g", MaxAbsDiff(c, want))
	}
}

func TestGemmTAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		m, k, n := rng.Intn(15)+1, rng.Intn(15)+1, rng.Intn(15)+1
		a := randomDense(rng, k, m) // A is k x m; product is Aᵀ(m x k) * B(k x n)
		b := randomDense(rng, k, n)
		c := randomDense(rng, m, n)
		want := c.Clone()
		GemmTA(1.5, a, b, 0.5, c)
		naiveGemm(1.5, a.Transpose(), b, 0.5, want)
		if MaxAbsDiff(c, want) > 1e-3 {
			t.Fatalf("trial %d: diff %g", trial, MaxAbsDiff(c, want))
		}
	}
}

func TestGemmTBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		m, k, n := rng.Intn(15)+1, rng.Intn(15)+1, rng.Intn(15)+1
		a := randomDense(rng, m, k)
		b := randomDense(rng, n, k) // B is n x k; product is A * Bᵀ(k x n)
		c := randomDense(rng, m, n)
		want := c.Clone()
		GemmTB(2, a, b, 1, c)
		naiveGemm(2, a, b.Transpose(), 1, want)
		if MaxAbsDiff(c, want) > 1e-3 {
			t.Fatalf("trial %d: diff %g", trial, MaxAbsDiff(c, want))
		}
	}
}

func TestParallelGemmMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := randomDense(rng, 64, 48), randomDense(rng, 48, 32)
	seq := NewDense(64, 32)
	Gemm(1, a, b, 0, seq)
	for _, workers := range []int{1, 2, 3, 8, 100} {
		par := NewDense(64, 32)
		ParallelGemm(1, a, b, 0, par, workers)
		if MaxAbsDiff(seq, par) > 1e-4 {
			t.Fatalf("workers=%d: diff %g", workers, MaxAbsDiff(seq, par))
		}
	}
}

func TestParallelGemmTBMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, b := randomDense(rng, 40, 16), randomDense(rng, 24, 16)
	seq := NewDense(40, 24)
	GemmTB(1, a, b, 0, seq)
	par := NewDense(40, 24)
	ParallelGemmTB(1, a, b, 0, par, 4)
	if MaxAbsDiff(seq, par) > 1e-4 {
		t.Fatalf("diff %g", MaxAbsDiff(seq, par))
	}
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Gemm(1, NewDense(2, 3), NewDense(4, 2), 0, NewDense(2, 2))
}

func TestGemmPhantomNoOp(t *testing.T) {
	// Phantom operands must not panic and must not touch real output.
	Gemm(1, NewPhantom(3, 4), NewPhantom(4, 5), 0, NewPhantom(3, 5))
	GemmTA(1, NewPhantom(4, 3), NewPhantom(4, 5), 0, NewPhantom(3, 5))
	GemmTB(1, NewPhantom(3, 4), NewPhantom(5, 4), 0, NewPhantom(3, 5))
}

func TestGemmFlops(t *testing.T) {
	if GemmFlops(2, 3, 4) != 48 {
		t.Fatalf("GemmFlops(2,3,4)=%d", GemmFlops(2, 3, 4))
	}
}

func TestGemmAssociativityProperty(t *testing.T) {
	// (A*B)*C == A*(B*C) up to float tolerance — underpins the paper's §4.4
	// order-switch optimization.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n, q := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		a, b, c := randomDense(rng, m, k), randomDense(rng, k, n), randomDense(rng, n, q)
		ab := NewDense(m, n)
		Gemm(1, a, b, 0, ab)
		left := NewDense(m, q)
		Gemm(1, ab, c, 0, left)
		bc := NewDense(k, q)
		Gemm(1, b, c, 0, bc)
		right := NewDense(m, q)
		Gemm(1, a, bc, 0, right)
		return MaxAbsDiff(left, right) < 1e-3
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
