package part

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mggcn/internal/gen"
	"mggcn/internal/sparse"
)

func TestUniformProperties(t *testing.T) {
	check := func(nRaw, pRaw uint16) bool {
		n := int(nRaw % 1000)
		parts := int(pRaw%16) + 1
		v := Uniform(n, parts)
		if v.Validate(n) != nil || v.Parts() != parts || v.N() != n {
			return false
		}
		// Near-equal: sizes differ by at most 1.
		min, max := n, 0
		for i := 0; i < parts; i++ {
			s := v.Size(i)
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerConsistentWithBounds(t *testing.T) {
	v := Uniform(103, 7)
	for x := 0; x < 103; x++ {
		i := v.Owner(x)
		lo, hi := v.Bounds(i)
		if x < lo || x >= hi {
			t.Fatalf("Owner(%d)=%d but bounds [%d,%d)", x, i, lo, hi)
		}
	}
}

func TestOwnerOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Uniform(10, 2).Owner(10)
}

func TestValidateRejectsBadVectors(t *testing.T) {
	if (Vector{0, 5, 3, 10}).Validate(10) == nil {
		t.Fatalf("accepted non-monotone vector")
	}
	if (Vector{1, 10}).Validate(10) == nil {
		t.Fatalf("accepted vector not starting at 0")
	}
	if (Vector{0, 9}).Validate(10) == nil {
		t.Fatalf("accepted vector not ending at n")
	}
	if (Vector{0}).Validate(0) == nil {
		t.Fatalf("accepted zero-part vector")
	}
}

func TestRandomPermIsBijection(t *testing.T) {
	perm := RandomPerm(500, 9)
	seen := make([]bool, 500)
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("duplicate image %d", p)
		}
		seen[p] = true
	}
}

func TestRandomPermDeterministic(t *testing.T) {
	a, b := RandomPerm(100, 3), RandomPerm(100, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at %d", i)
		}
	}
}

func TestTileNNZSumsToTotal(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 4
		parts := rng.Intn(4) + 1
		var entries []sparse.Coo
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.2 {
					entries = append(entries, sparse.Coo{Row: int32(i), Col: int32(j)})
				}
			}
		}
		a := sparse.FromCoo(n, n, entries, false)
		tiles := TileNNZ(a, Uniform(n, parts))
		var sum int64
		for i := range tiles {
			for _, w := range tiles[i] {
				sum += w
			}
		}
		return sum == a.NNZ()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTileNNZMatchesSubMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 20
	var entries []sparse.Coo
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.25 {
				entries = append(entries, sparse.Coo{Row: int32(i), Col: int32(j)})
			}
		}
	}
	a := sparse.FromCoo(n, n, entries, false)
	p := Uniform(n, 3)
	tiles := TileNNZ(a, p)
	if through := permutedTileNNZ(a, nil, p); !reflect.DeepEqual(through, tiles) {
		t.Fatalf("counted through the identity: %v, TileNNZ %v", through, tiles)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r0, r1 := p.Bounds(i)
			c0, c1 := p.Bounds(j)
			if got := a.CountTileNNZ(r0, r1, c0, c1); got != tiles[i][j] {
				t.Fatalf("tile (%d,%d): %d vs %d", i, j, got, tiles[i][j])
			}
		}
	}
}

func TestComputeBalance(t *testing.T) {
	b := computeBalance([]int64{10, 10, 10, 10})
	if b.Imbalance != 1 || b.Mean != 10 {
		t.Fatalf("uniform balance wrong: %+v", b)
	}
	b = computeBalance([]int64{30, 10, 10, 10})
	if b.Imbalance != 2 || b.Max != 30 || b.Min != 10 {
		t.Fatalf("skewed balance wrong: %+v", b)
	}
	if got := computeBalance(nil); got != (balance{}) {
		t.Fatalf("empty balance should be zero")
	}
	if got := computeBalance([]int64{0, 0}); got.Imbalance != 1 {
		t.Fatalf("all-zero work should report imbalance 1, got %+v", got)
	}
}

func TestPermutationImprovesBalance(t *testing.T) {
	// The headline §5.2 claim: on a degree-skewed graph in natural order,
	// random permutation reduces per-stage imbalance for multi-GPU tilings.
	adj := gen.BTER(gen.DefaultBTER(3000, 30, 17))
	p := Uniform(adj.Rows, 8)

	orig := totalImbalance(TileNNZ(adj, p))
	perm := RandomPerm(adj.Rows, 5)
	balanced := totalImbalance(permutedTileNNZ(adj, perm, p))

	if orig.Imbalance < 1.2 {
		t.Fatalf("natural ordering unexpectedly balanced (%.3f); generator lost skew", orig.Imbalance)
	}
	if balanced.Imbalance >= orig.Imbalance {
		t.Fatalf("permutation did not improve balance: %.3f -> %.3f", orig.Imbalance, balanced.Imbalance)
	}
	if balanced.Imbalance > 1.25 {
		t.Fatalf("permuted imbalance %.3f still high", balanced.Imbalance)
	}
}

func TestBalancedVectorEqualWeights(t *testing.T) {
	w := make([]int64, 100)
	for i := range w {
		w[i] = 1
	}
	v := BalancedVector(w, 4)
	if v.Validate(100) != nil {
		t.Fatalf("invalid vector %v", v)
	}
	for p := 0; p < 4; p++ {
		if v.Size(p) != 25 {
			t.Fatalf("uniform weights should give uniform parts: %v", v)
		}
	}
}

func TestBalancedVectorSkewedWeights(t *testing.T) {
	// One giant row at the front: the first part should hold just it.
	w := make([]int64, 10)
	w[0] = 1000
	for i := 1; i < 10; i++ {
		w[i] = 1
	}
	v := BalancedVector(w, 3)
	if v.Validate(10) != nil {
		t.Fatalf("invalid vector %v", v)
	}
	if v.Size(0) != 1 {
		t.Fatalf("first part should isolate the heavy row: %v", v)
	}
}

func TestBalancedVectorBeatsUniformOnSkew(t *testing.T) {
	adj := gen.BTER(gen.DefaultBTER(3000, 30, 17))
	weights := make([]int64, adj.Rows)
	for i := range weights {
		weights[i] = adj.RowNNZ(i)
	}
	uniform := totalImbalance(TileNNZ(adj, Uniform(adj.Rows, 8)))
	balanced := totalImbalance(TileNNZ(adj, BalancedVector(weights, 8)))
	if balanced.Imbalance >= uniform.Imbalance {
		t.Fatalf("balanced cuts %.3f did not beat uniform %.3f", balanced.Imbalance, uniform.Imbalance)
	}
}

func TestBalancedVectorNeverEmptyParts(t *testing.T) {
	// All weight on the first element must still leave one element per part.
	w := []int64{100, 0, 0, 0}
	v := BalancedVector(w, 4)
	if v.Validate(4) != nil {
		t.Fatalf("invalid: %v", v)
	}
	for p := 0; p < 4; p++ {
		if v.Size(p) != 1 {
			t.Fatalf("parts must not be starved: %v", v)
		}
	}
}

func TestBalancedVectorBadPartsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	BalancedVector([]int64{1}, 0)
}

// Owner returns the part index owning element x.
func (v Vector) Owner(x int) int {
	if x < 0 || x >= v.N() {
		panic(fmt.Sprintf("part: element %d outside [0,%d)", x, v.N()))
	}
	lo, hi := 0, v.Parts()
	for lo < hi {
		mid := (lo + hi) / 2
		if v[mid+1] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TileNNZ returns the parts x parts matrix of stored-entry counts for the
// symmetric tiling of a by vector p: tile[i][j] = nnz(A^{ij}).
func TileNNZ(a *sparse.CSR, p Vector) [][]int64 {
	if a.Rows != a.Cols || p.N() != a.Rows {
		panic(fmt.Sprintf("part: tiling %dx%d with vector covering %d", a.Rows, a.Cols, p.N()))
	}
	parts := p.Parts()
	out := make([][]int64, parts)
	for i := range out {
		out[i] = make([]int64, parts)
	}
	for r := 0; r < a.Rows; r++ {
		i := p.Owner(r)
		cols, _ := a.Row(r)
		for _, c := range cols {
			out[i][p.Owner(int(c))]++
		}
	}
	return out
}

// permutedTileNNZ is TileNNZ of P·A·Pᵀ for perm (perm[old] = new; nil keeps
// the natural order), counted through perm without building P·A·Pᵀ.
func permutedTileNNZ(a *sparse.CSR, perm []int32, p Vector) [][]int64 {
	relabel := func(v int32) int {
		if perm == nil {
			return int(v)
		}
		return int(perm[v])
	}
	out := make([][]int64, p.Parts())
	for i := range out {
		out[i] = make([]int64, p.Parts())
	}
	for u := 0; u < a.Rows; u++ {
		i := p.Owner(relabel(int32(u)))
		cols, _ := a.Row(u)
		for _, w := range cols {
			out[i][p.Owner(relabel(w))]++
		}
	}
	return out
}

// totalImbalance returns the epoch-level imbalance: per-GPU total tile work
// max/mean across the whole P-stage SpMM.
func totalImbalance(tiles [][]int64) balance {
	rows := make([]int64, len(tiles))
	for i := range tiles {
		for _, w := range tiles[i] {
			rows[i] += w
		}
	}
	return computeBalance(rows)
}

// balance summarizes load balance of a per-part work assignment.
type balance struct {
	Max, Min, Mean float64
	// Imbalance is Max/Mean; 1.0 is perfect balance. The paper's Fig 6
	// contrast is an original-ordering imbalance far above the permuted one.
	Imbalance float64
}

// computeBalance summarizes the work vector (ignores empty input).
func computeBalance(work []int64) balance {
	if len(work) == 0 {
		return balance{}
	}
	b := balance{Min: float64(work[0]), Max: float64(work[0])}
	var sum float64
	for _, w := range work {
		f := float64(w)
		sum += f
		if f > b.Max {
			b.Max = f
		}
		if f < b.Min {
			b.Min = f
		}
	}
	b.Mean = sum / float64(len(work))
	if b.Mean > 0 {
		b.Imbalance = b.Max / b.Mean
	} else {
		b.Imbalance = 1
	}
	return b
}

// Validate checks eq. (13)'s invariants.
func (v Vector) Validate(n int) error {
	if len(v) < 2 {
		return fmt.Errorf("part: vector needs at least one part")
	}
	if v[0] != 0 {
		return fmt.Errorf("part: p[0] = %d, want 0", v[0])
	}
	if v[len(v)-1] != n {
		return fmt.Errorf("part: p[P] = %d, want n = %d", v[len(v)-1], n)
	}
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			return fmt.Errorf("part: vector not monotone at %d", i)
		}
	}
	return nil
}

// N returns the total element count covered by the vector.
func (v Vector) N() int { return v[len(v)-1] }
