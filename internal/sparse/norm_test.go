package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mggcn/internal/tensor"
)

func TestNormalizeInDegreeColumnsSumToOne(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		a := randomCSR(rng, n, n, 0.4, false)
		norm := NormalizeInDegree(a)
		colSum := make([]float64, n)
		colHas := make([]bool, n)
		for i := 0; i < n; i++ {
			cols, vals := norm.Row(i)
			for k, c := range cols {
				colSum[c] += float64(vals[k])
				colHas[c] = true
			}
		}
		for c := 0; c < n; c++ {
			if colHas[c] && math.Abs(colSum[c]-1) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeInDegreePreservesStructure(t *testing.T) {
	a := FromCoo(3, 3, []Coo{{Row: 0, Col: 1}, {Row: 2, Col: 1}, {Row: 1, Col: 0}}, false)
	norm := NormalizeInDegree(a)
	if err := norm.Validate(); err != nil {
		t.Fatal(err)
	}
	if norm.NNZ() != a.NNZ() {
		t.Fatalf("nnz changed: %d vs %d", norm.NNZ(), a.NNZ())
	}
	// Column 1 has two in-entries, each becomes 1/2.
	d := norm.ToDenseRows()
	if d[0][1] != 0.5 || d[2][1] != 0.5 || d[1][0] != 1 {
		t.Fatalf("values wrong: %v", d)
	}
}

func TestNormalizeInDegreeDoesNotMutateInput(t *testing.T) {
	a := FromCoo(2, 2, []Coo{{Row: 0, Col: 0, Val: 4}}, true)
	NormalizeInDegree(a)
	if a.Vals[0] != 4 {
		t.Fatalf("input mutated: %v", a.Vals[0])
	}
}

func TestNormalizeRowMeanAveragesNeighbors(t *testing.T) {
	// Row-mean normalized A times H must average each row's neighbor features.
	a := FromCoo(2, 3, []Coo{{Row: 0, Col: 0}, {Row: 0, Col: 2}, {Row: 1, Col: 1}}, false)
	norm := NormalizeRowMean(a)
	x := tensor.NewDense(3, 1)
	x.Set(0, 0, 10)
	x.Set(1, 0, 20)
	x.Set(2, 0, 30)
	c := tensor.NewDense(2, 1)
	SpMM(norm, x, 0, c)
	if math.Abs(float64(c.At(0, 0))-20) > 1e-6 || math.Abs(float64(c.At(1, 0))-20) > 1e-6 {
		t.Fatalf("averaging wrong: %v %v", c.At(0, 0), c.At(1, 0))
	}
}

func TestNormalizeRowMeanEmptyRows(t *testing.T) {
	a := FromCoo(2, 2, []Coo{{Row: 0, Col: 1}}, false)
	norm := NormalizeRowMean(a)
	if norm.Vals[0] != 1 {
		t.Fatalf("single-entry row should have weight 1, got %v", norm.Vals[0])
	}
}

func TestRowMeanIsTransposeOfInDegree(t *testing.T) {
	// NormalizeRowMean(Aᵀ) == NormalizeInDegree(A)ᵀ: the two views of eq. (2).
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		a := randomCSR(rng, n, n, 0.4, false)
		left := NormalizeRowMean(a.Transpose()).ToDenseRows()
		right := NormalizeInDegree(a).Transpose().ToDenseRows()
		for i := range left {
			for j := range left[i] {
				if math.Abs(float64(left[i][j]-right[i][j])) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFactoredInDegreeExpandsToNormalized: FactoredInDegree's column scale,
// spread over its entries, is NormalizeInDegree's values bit for bit —
// vertices without in-edges included — on a's own structure; a weighted a
// gets NormalizeInDegree itself.
func TestFactoredInDegreeExpandsToNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(80)
		a := FromCoo(n, n, randomCoo(rng, n, n, false), false)
		f := FactoredInDegree(a)
		if err := f.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if &f.RowPtr[0] != &a.RowPtr[0] || f.Vals != nil || f.RowScale != nil || f.ColScale == nil {
			t.Fatalf("trial %d: not a column scale over a's structure: %+v", trial, f)
		}
		if !reflect.DeepEqual(Expand(f), NormalizeInDegree(a)) {
			t.Fatalf("trial %d: expanded scale differs from NormalizeInDegree", trial)
		}
	}
	w := FromCoo(3, 3, []Coo{{Row: 0, Col: 1, Val: 2}, {Row: 2, Col: 1, Val: 3}}, true)
	if !reflect.DeepEqual(FactoredInDegree(w), NormalizeInDegree(w)) {
		t.Fatal("a weighted matrix is not NormalizeInDegree's")
	}
}
