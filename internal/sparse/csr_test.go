package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCSR generates a random rows x cols CSR with approximate density.
func randomCSR(rng *rand.Rand, rows, cols int, density float64, withVals bool) *CSR {
	var entries []Coo
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				e := Coo{Row: int32(i), Col: int32(j), Val: 1}
				if withVals {
					e.Val = float32(rng.NormFloat64())
				}
				entries = append(entries, e)
			}
		}
	}
	return FromCoo(rows, cols, entries, withVals)
}

func TestFromCooBasic(t *testing.T) {
	m := FromCoo(3, 3, []Coo{
		{Row: 0, Col: 1, Val: 2},
		{Row: 2, Col: 0, Val: 3},
		{Row: 0, Col: 0, Val: 1},
	}, true)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ=%d, want 3", m.NNZ())
	}
	d := m.ToDenseRows()
	if d[0][0] != 1 || d[0][1] != 2 || d[2][0] != 3 {
		t.Fatalf("wrong values: %v", d)
	}
}

func TestFromCooSumsDuplicates(t *testing.T) {
	m := FromCoo(2, 2, []Coo{
		{Row: 1, Col: 1, Val: 2},
		{Row: 1, Col: 1, Val: 5},
	}, true)
	if m.NNZ() != 1 {
		t.Fatalf("NNZ=%d, want 1 after dedup", m.NNZ())
	}
	if got := m.ToDenseRows()[1][1]; got != 7 {
		t.Fatalf("duplicate sum=%v, want 7", got)
	}
}

func TestFromCooStructureOnly(t *testing.T) {
	m := FromCoo(2, 2, []Coo{{Row: 0, Col: 1}, {Row: 0, Col: 1}}, false)
	if m.Vals != nil {
		t.Fatalf("expected structure-only")
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ=%d, want deduplicated 1", m.NNZ())
	}
	if got := m.ToDenseRows()[0][1]; got != 1 {
		t.Fatalf("structure-only entries must materialize as 1, got %v", got)
	}
}

func TestFromCooOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	FromCoo(2, 2, []Coo{{Row: 2, Col: 0}}, false)
}

func TestRowAccess(t *testing.T) {
	m := FromCoo(2, 4, []Coo{
		{Row: 0, Col: 3, Val: 4},
		{Row: 0, Col: 1, Val: 2},
	}, true)
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 {
		t.Fatalf("cols=%v", cols)
	}
	if vals[0] != 2 || vals[1] != 4 {
		t.Fatalf("vals=%v", vals)
	}
	if m.RowNNZ(1) != 0 {
		t.Fatalf("RowNNZ(1)=%d", m.RowNNZ(1))
	}
}

func TestTransposeInvolution(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, rng.Intn(10)+1, rng.Intn(10)+1, 0.3, true)
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
			return false
		}
		a, b := m.ToDenseRows(), tt.ToDenseRows()
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeExplicit(t *testing.T) {
	m := FromCoo(2, 3, []Coo{{Row: 0, Col: 2, Val: 9}, {Row: 1, Col: 0, Val: 4}}, true)
	tr := m.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	d := tr.ToDenseRows()
	if tr.Rows != 3 || tr.Cols != 2 || d[2][0] != 9 || d[0][1] != 4 {
		t.Fatalf("bad transpose: %v", d)
	}
}

func TestTransposeStructureOnlyStaysStructureOnly(t *testing.T) {
	m := FromCoo(2, 2, []Coo{{Row: 0, Col: 1}}, false)
	if m.Transpose().Vals != nil {
		t.Fatalf("transpose invented values")
	}
}

func TestSubMatrix(t *testing.T) {
	m := FromCoo(4, 4, []Coo{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 2, Val: 2},
		{Row: 2, Col: 1, Val: 3}, {Row: 3, Col: 3, Val: 4},
	}, true)
	tile := m.SubMatrix(1, 3, 1, 4)
	if err := tile.Validate(); err != nil {
		t.Fatal(err)
	}
	if tile.Rows != 2 || tile.Cols != 3 {
		t.Fatalf("tile shape %dx%d", tile.Rows, tile.Cols)
	}
	d := tile.ToDenseRows()
	if d[0][1] != 2 || d[1][0] != 3 {
		t.Fatalf("tile values wrong: %v", d)
	}
	if tile.NNZ() != 2 {
		t.Fatalf("tile NNZ=%d", tile.NNZ())
	}
}

func TestSubMatrixMatchesCountTileNNZ(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		m := randomCSR(rng, n, n, 0.4, false)
		r0 := rng.Intn(n)
		r1 := r0 + rng.Intn(n-r0)
		c0 := rng.Intn(n)
		c1 := c0 + rng.Intn(n-c0)
		return m.SubMatrix(r0, r1, c0, c1).NNZ() == m.CountTileNNZ(r0, r1, c0, c1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTilesPartitionNNZ(t *testing.T) {
	// Sum of nnz over a full 2x2 tiling equals total nnz.
	rng := rand.New(rand.NewSource(77))
	m := randomCSR(rng, 9, 9, 0.3, true)
	mid := 4
	var sum int64
	for _, rr := range [][2]int{{0, mid}, {mid, 9}} {
		for _, cc := range [][2]int{{0, mid}, {mid, 9}} {
			sum += m.CountTileNNZ(rr[0], rr[1], cc[0], cc[1])
		}
	}
	if sum != m.NNZ() {
		t.Fatalf("tiles nnz %d != total %d", sum, m.NNZ())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := FromCoo(2, 2, []Coo{{Row: 0, Col: 0}, {Row: 0, Col: 1}}, false)
	m.ColIdx[1] = 5 // out of range
	if m.Validate() == nil {
		t.Fatalf("Validate missed out-of-range column")
	}
	m2 := FromCoo(2, 2, []Coo{{Row: 0, Col: 0}, {Row: 0, Col: 1}}, false)
	m2.ColIdx[0], m2.ColIdx[1] = m2.ColIdx[1], m2.ColIdx[0]
	if m2.Validate() == nil {
		t.Fatalf("Validate missed unsorted row")
	}
}

func TestBytesAccounting(t *testing.T) {
	m := FromCoo(3, 3, []Coo{{Row: 0, Col: 0}, {Row: 1, Col: 1}}, false)
	want := int64(4)*8 + 2*4 + 2*4
	if m.Bytes() != want {
		t.Fatalf("Bytes=%d, want %d", m.Bytes(), want)
	}
}
