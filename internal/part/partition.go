// Package part implements the paper's partitioning machinery (§4.1, §5.2):
// partition vectors (eq. 13), uniform and degree-balanced 1D cuts, per-tile
// nonzero accounting, and the random vertex permutation that fixes the
// imbalance of natural orderings.
package part

import (
	"fmt"
	"math/rand"

	"mggcn/internal/sparse"
)

// Vector is a partition vector p with P parts per eq. (13):
// 0 = p[0] <= p[1] <= ... <= p[P] = n. Part i owns rows [p[i], p[i+1]).
type Vector []int

// Parts returns the number of parts P.
func (v Vector) Parts() int { return len(v) - 1 }

// N returns the total element count covered by the vector.
func (v Vector) N() int { return v[len(v)-1] }

// Bounds returns the half-open range [lo, hi) of part i.
func (v Vector) Bounds(i int) (lo, hi int) { return v[i], v[i+1] }

// Size returns the number of elements in part i.
func (v Vector) Size(i int) int { return v[i+1] - v[i] }

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

// Uniform builds the partition vector splitting n elements into parts
// near-equal contiguous ranges (the paper's uniform symmetric partitioning).
func Uniform(n, parts int) Vector {
	if parts <= 0 {
		panic(fmt.Sprintf("part: parts = %d", parts))
	}
	v := make(Vector, parts+1)
	for i := 0; i <= parts; i++ {
		v[i] = i * n / parts
	}
	return v
}

// RandomPerm returns a uniformly random permutation of n elements
// (perm[old] = new) drawn from the given seed — the §5.2 load balancer.
func RandomPerm(n int, seed uint64) []int32 {
	rng := rand.New(rand.NewSource(int64(seed)))
	perm := make([]int32, n)
	for i, v := range rng.Perm(n) {
		perm[i] = int32(v)
	}
	return perm
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

// BalancedVector builds a partition vector whose parts carry near-equal
// total weight (e.g. per-row nonzeros) instead of near-equal element
// counts — the alternative to §5.2's "permute then cut uniformly": keep
// the ordering, move the cuts. Parts are contiguous; each cut is placed
// greedily at the first position reaching the running target.
func BalancedVector(weights []int64, parts int) Vector {
	if parts <= 0 {
		panic(fmt.Sprintf("part: parts = %d", parts))
	}
	n := len(weights)
	var total int64
	for _, w := range weights {
		total += w
	}
	v := make(Vector, parts+1)
	v[parts] = n
	pos := 0
	var acc int64
	for p := 1; p < parts; p++ {
		// Leave at least one element for each of the remaining parts.
		maxPos := n - (parts - p)
		target := total * int64(p) / int64(parts)
		for pos < maxPos && acc < target {
			acc += weights[pos]
			pos++
		}
		// A part must own at least one element when enough remain.
		if pos == v[p-1] && pos < maxPos {
			acc += weights[pos]
			pos++
		}
		v[p] = pos
	}
	return v
}
