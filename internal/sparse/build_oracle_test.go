package sparse

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// fromCooSorted is the comparison-sort FromCoo the counting build replaced,
// kept as its oracle. The sort is stable, so duplicates are summed in input
// order, the order FromCoo documents.
func fromCooSorted(rows, cols int, entries []Coo, withVals bool) *CSR {
	for _, e := range entries {
		if int(e.Row) < 0 || int(e.Row) >= rows || int(e.Col) < 0 || int(e.Col) >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols))
		}
	}
	sorted := make([]Coo, len(entries))
	copy(sorted, entries)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	m.ColIdx = make([]int32, 0, len(sorted))
	if withVals {
		m.Vals = make([]float32, 0, len(sorted))
	}
	for i := 0; i < len(sorted); {
		j := i + 1
		sum := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, sorted[i].Col)
		if withVals {
			m.Vals = append(m.Vals, sum)
		}
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// permuteSymmetricSorted is the PermuteSymmetric the counting scatter
// replaced, kept as its oracle: gather each new row from its old row, map
// the columns through perm, and sort the row by comparison.
func permuteSymmetricSorted(a *CSR, perm []int32) *CSR {
	inv := InversePerm(perm)
	out := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}
	for nw := 0; nw < a.Rows; nw++ {
		out.RowPtr[nw+1] = out.RowPtr[nw] + a.RowNNZ(int(inv[nw]))
	}
	nnz := out.RowPtr[a.Rows]
	out.ColIdx = make([]int32, nnz)
	if a.Vals != nil {
		out.Vals = make([]float32, nnz)
	}
	type entry struct {
		col int32
		val float32
	}
	var scratch []entry
	for nw := 0; nw < a.Rows; nw++ {
		cols, vals := a.Row(int(inv[nw]))
		scratch = scratch[:0]
		for k, c := range cols {
			e := entry{col: perm[c]}
			if vals != nil {
				e.val = vals[k]
			}
			scratch = append(scratch, e)
		}
		sort.SliceStable(scratch, func(i, j int) bool { return scratch[i].col < scratch[j].col })
		lo := out.RowPtr[nw]
		for k, e := range scratch {
			out.ColIdx[lo+int64(k)] = e.col
			if out.Vals != nil {
				out.Vals[lo+int64(k)] = e.val
			}
		}
	}
	return out
}

// randomCoo draws a rows x cols entry list in random order with the shapes
// the counting builds must get right: empty rows (every third row is left
// out), hub rows of more than 32 entries (the old sort switched algorithms
// there), and, when dups, repeated coordinates with their own values.
func randomCoo(rng *rand.Rand, rows, cols int, dups bool) []Coo {
	var entries []Coo
	for r := 0; r < rows; r++ {
		if r%3 == 1 {
			continue
		}
		deg := rng.Intn(4)
		if rng.Intn(5) == 0 {
			deg = 33 + rng.Intn(40)
		}
		deg = min(deg, cols)
		for _, c := range rng.Perm(cols)[:deg] {
			entries = append(entries, Coo{Row: int32(r), Col: int32(c), Val: float32(rng.NormFloat64())})
		}
	}
	if dups {
		for i, n := 0, len(entries)/4; i < n; i++ {
			e := entries[rng.Intn(len(entries))]
			e.Val = float32(rng.NormFloat64())
			entries = append(entries, e)
		}
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return entries
}

func TestFromCooMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(90), 1+rng.Intn(90)
		if trial%3 == 0 {
			cols = rows
		}
		entries := randomCoo(rng, rows, cols, trial%2 == 0)
		for _, valued := range []bool{false, true} {
			name := fmt.Sprintf("trial %d: %dx%d, %d entries, valued %v", trial, rows, cols, len(entries), valued)
			got, want := FromCoo(rows, cols, entries, valued), fromCooSorted(rows, cols, entries, valued)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: counting build differs from the sorted oracle", name)
			}
		}
	}
	if got := FromCoo(3, 5, nil, true); !reflect.DeepEqual(got, fromCooSorted(3, 5, nil, true)) || got.Vals == nil {
		t.Fatalf("empty valued build: %+v", got)
	}
}

func TestPermuteSymmetricMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(120)
		for _, valued := range []bool{false, true} {
			a := FromCoo(n, n, randomCoo(rng, n, n, false), valued)
			perm := randPerm32(rng, n)
			got, want := PermuteSymmetric(a, perm), permuteSymmetricSorted(a, perm)
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d (n=%d, valued %v): %v", trial, n, valued, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d, valued %v): counting permutation differs from the sorted oracle", trial, n, valued)
			}
		}
	}
}
