// PermutedTiles against the long way round, PermuteSymmetric → Transpose →
// SubMatrix, over the orderings and cuts the trainers use (external test
// package: the orderings live in part, which depends on sparse).
package sparse_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/part"
	"mggcn/internal/sparse"
)

// tileTestMatrix returns an n×n matrix with isolated vertices (every third
// one has no row or column entry), empty rows, a few dense hubs and, when
// valued, distinct values.
func tileTestMatrix(rng *rand.Rand, n int, valued bool) *sparse.CSR {
	var entries []sparse.Coo
	for u := 0; u < n; u++ {
		if u%3 == 2 || rng.Intn(4) == 0 {
			continue
		}
		deg := rng.Intn(5)
		if rng.Intn(7) == 0 {
			deg = n
		}
		for _, w := range rng.Perm(n)[:min(deg, n)] {
			if w%3 != 2 {
				entries = append(entries, sparse.Coo{Row: int32(u), Col: int32(w), Val: float32(rng.NormFloat64())})
			}
		}
	}
	return sparse.FromCoo(n, n, entries, valued)
}

// orderingPerms returns the five vertex orderings' permutations of a, the
// natural order as nil.
func orderingPerms(a *sparse.CSR, blocks int, seed uint64) map[string][]int32 {
	return map[string][]int32{
		"natural":       nil,
		"random":        part.RandomPerm(a.Rows, seed),
		"degree-sorted": part.DegreeSortPerm(a),
		"bfs":           part.BFSPerm(a, int(seed)%a.Rows),
		"block-cyclic":  part.BlockCyclicPerm(a.Rows, blocks),
	}
}

// checkTiles fails unless PermutedTiles(a, perm, vec), with any scale
// expanded to values per entry, equals the oracle's cuts of Expand(a) field
// for field (nil and empty slices told apart), every tile's ColIdx and Vals
// are exactly as long as their capacity, the values keep a's form, and an
// am tile without values per entry shares its twin at tile's structure
// exactly when the two structures are the same.
func checkTiles(t *testing.T, name string, a *sparse.CSR, perm []int32, vec part.Vector) {
	t.Helper()
	norm := sparse.Expand(a)
	if perm != nil {
		norm = sparse.PermuteSymmetric(norm, perm)
	}
	at := norm.Transpose()
	gotAt, gotA := sparse.PermutedTiles(a, perm, vec)
	blocks := vec.Parts()
	if len(gotAt) != blocks || len(gotA) != blocks {
		t.Fatalf("%s: grids %d and %d rows, want %d", name, len(gotAt), len(gotA), blocks)
	}
	for i := 0; i < blocks; i++ {
		r0, r1 := vec.Bounds(i)
		for j := 0; j < blocks; j++ {
			c0, c1 := vec.Bounds(j)
			for _, tc := range []struct {
				orient             string
				got, want          *sparse.CSR
				rowScale, colScale bool
			}{
				{"Âᵀ", gotAt[i][j], at.SubMatrix(r0, r1, c0, c1), a.ColScale != nil, a.RowScale != nil},
				{"Â", gotA[i][j], norm.SubMatrix(r0, r1, c0, c1), a.RowScale != nil, a.ColScale != nil},
			} {
				if got := sparse.Expand(tc.got); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("%s: %s tile (%d,%d) differs from the oracle:\n got %+v\nwant %+v", name, tc.orient, i, j, got, tc.want)
				}
				if (tc.got.RowScale != nil) != tc.rowScale || (tc.got.ColScale != nil) != tc.colScale || (tc.got.Vals != nil) != (a.Vals != nil) {
					t.Fatalf("%s: %s tile (%d,%d) holds its values in another form than A's", name, tc.orient, i, j)
				}
				if cap(tc.got.ColIdx) != len(tc.got.ColIdx) || cap(tc.got.Vals) != len(tc.got.Vals) {
					t.Fatalf("%s: %s tile (%d,%d) holds spare capacity: ColIdx %d/%d, Vals %d/%d", name, tc.orient, i, j,
						len(tc.got.ColIdx), cap(tc.got.ColIdx), len(tc.got.Vals), cap(tc.got.Vals))
				}
			}
			twin, m := gotAt[i][j], gotA[i][j]
			same := reflect.DeepEqual(twin.RowPtr, m.RowPtr) && reflect.DeepEqual(twin.ColIdx, m.ColIdx)
			if shared := &twin.RowPtr[0] == &m.RowPtr[0]; shared != (same && a.Vals == nil) {
				t.Fatalf("%s: Â tile (%d,%d) shares its twin's structure: %v, same structure: %v, values per entry: %v",
					name, i, j, shared, same, a.Vals != nil)
			}
		}
	}
}

func TestPermutedTilesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var graphs []*sparse.CSR
	for trial := 0; trial < 6; trial++ {
		n := 1 + rng.Intn(40)
		if trial == 5 {
			n = 5 // fewer vertices than most block counts
		}
		graphs = append(graphs, tileTestMatrix(rng, n, trial%2 == 0))
	}
	// Â factored, of a directed graph with isolated vertices and of an
	// undirected one, whose tiles all pair up; the latter also with a
	// value per entry, and with the scale on the other side.
	bter := gen.BTER(gen.DefaultBTER(90, 6, 3))
	rowScaled := sparse.FactoredInDegree(bter).Transpose()
	graphs = append(graphs, sparse.FactoredInDegree(graphs[1]), sparse.NormalizeInDegree(bter), sparse.FactoredInDegree(bter), rowScaled)
	for g, a := range graphs {
		for blocks := 1; blocks <= 8; blocks++ {
			for ord, perm := range orderingPerms(a, blocks, uint64(g+blocks)) {
				// The balanced cut weighs each vertex by its row of the
				// permuted matrix in both orientations, as the trainers do.
				norm := a
				if perm != nil {
					norm = sparse.PermuteSymmetric(sparse.Expand(a), perm)
				}
				at := norm.Transpose()
				weights := make([]int64, a.Rows)
				for v := range weights {
					weights[v] = norm.RowNNZ(v) + at.RowNNZ(v)
				}
				for _, vec := range []part.Vector{part.Uniform(a.Rows, blocks), part.BalancedVector(weights, blocks)} {
					checkTiles(t, fmt.Sprintf("graph %d (n=%d, valued %v, row scale %v, column scale %v) %s %v",
						g, a.Rows, a.Vals != nil, a.RowScale != nil, a.ColScale != nil, ord, vec), a, perm, vec)
				}
			}
		}
	}
}

// TestFactoredTilesShareSymmetricStructure: on an undirected graph every Â
// tile is its Âᵀ twin's structure, so the grid stores one; on a directed one
// the tiles whose structures differ keep their own.
func TestFactoredTilesShareSymmetricStructure(t *testing.T) {
	directed := tileTestMatrix(rand.New(rand.NewSource(3)), 40, false)
	for _, tc := range []struct {
		name      string
		a         *sparse.CSR
		allShared bool
	}{
		{"undirected", gen.BTER(gen.DefaultBTER(90, 6, 3)), true},
		{"directed", directed, false},
	} {
		at, am := sparse.PermutedTiles(sparse.FactoredInDegree(tc.a), part.RandomPerm(tc.a.Rows, 7), part.Uniform(tc.a.Rows, 4))
		shared := 0
		for i := range at {
			for j := range at[i] {
				if &at[i][j].RowPtr[0] == &am[i][j].RowPtr[0] {
					shared++
				}
			}
		}
		if all := shared == len(at)*len(at); all != tc.allShared {
			t.Errorf("%s: %d of %d Â tiles share their twin's structure", tc.name, shared, len(at)*len(at))
		}
	}
}

func TestPermutedTilesMoreBlocksThanVertices(t *testing.T) {
	a := tileTestMatrix(rand.New(rand.NewSource(2)), 4, true)
	for _, perm := range [][]int32{nil, {3, 1, 0, 2}} {
		checkTiles(t, fmt.Sprintf("perm %v", perm), a, perm, part.Uniform(4, 7))
	}
}

func TestPermutedTilesRejectsBadInput(t *testing.T) {
	a := sparse.FromCoo(3, 3, []sparse.Coo{{Row: 0, Col: 1}, {Row: 2, Col: 0}}, false)
	for name, call := range map[string]func(){
		"non-bijection":   func() { sparse.PermutedTiles(a, []int32{0, 0, 1}, []int{0, 3}) },
		"short perm":      func() { sparse.PermutedTiles(a, []int32{0, 1}, []int{0, 3}) },
		"uncovered rows":  func() { sparse.PermutedTiles(a, nil, []int{0, 2}) },
		"non-monotone":    func() { sparse.PermutedTiles(a, nil, []int{0, 2, 1, 3}) },
		"non-square":      func() { sparse.PermutedTiles(sparse.FromCoo(2, 3, nil, false), nil, []int{0, 2}) },
		"no blocks":       func() { sparse.PermutedTiles(a, nil, []int{3}) },
		"bounds past end": func() { sparse.PermutedTiles(a, nil, []int{0, 4, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
