package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = float32(rng.NormFloat64())
	}
	return d
}

func TestNewDenseZeroed(t *testing.T) {
	d := NewDense(3, 4)
	if d.Rows != 3 || d.Cols != 4 || d.Stride != 4 {
		t.Fatalf("bad shape: %+v", d)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if d.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(1, 2, 7.5)
	if got := d.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2)=%v, want 7.5", got)
	}
	if d.At(0, 0) != 0 {
		t.Fatalf("unrelated element modified")
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on out-of-bounds access")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestPhantomAccessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on phantom element access")
		}
	}()
	NewPhantom(2, 2).At(0, 0)
}

func TestPhantomProperties(t *testing.T) {
	p := NewPhantom(10, 20)
	if !p.IsPhantom() {
		t.Fatalf("IsPhantom false")
	}
	if p.Bytes() != 10*20*4 {
		t.Fatalf("Bytes=%d", p.Bytes())
	}
	c := p.Clone()
	if !c.IsPhantom() || c.Rows != 10 || c.Cols != 20 {
		t.Fatalf("phantom clone lost shape or grew data: %+v", c)
	}
}

func TestRowAliasesStorage(t *testing.T) {
	d := NewDense(3, 3)
	d.Row(1)[2] = 42
	if d.At(1, 2) != 42 {
		t.Fatalf("Row does not alias storage")
	}
}

// TestRowOutOfBounds: a row outside [0, Rows) panics, and the panic prints
// the message Row has always given.
func TestRowOutOfBounds(t *testing.T) {
	d := NewDense(3, 2)
	for _, i := range []int{-1, d.Rows} {
		func() {
			defer func() {
				want := fmt.Sprintf("tensor: row %d out of bounds %d", i, d.Rows)
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("Row(%d) panicked with %q, want %q", i, got, want)
				}
			}()
			d.Row(i)
		}()
	}
}

func TestRowSliceView(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomDense(rng, 6, 4)
	v := d.RowSlice(2, 5)
	if v.Rows != 3 || v.Cols != 4 {
		t.Fatalf("bad view shape %dx%d", v.Rows, v.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if v.At(i, j) != d.At(i+2, j) {
				t.Fatalf("view mismatch at (%d,%d)", i, j)
			}
		}
	}
	v.Set(0, 0, -99)
	if d.At(2, 0) != -99 {
		t.Fatalf("view writes must reach parent")
	}
	empty := d.RowSlice(3, 3)
	if empty.Rows != 0 {
		t.Fatalf("empty slice has %d rows", empty.Rows)
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randomDense(rng, 4, 5)
	c := d.Clone()
	if !Equal(d, c, 0) {
		t.Fatalf("clone differs")
	}
	c.Set(0, 0, 123)
	if d.At(0, 0) == 123 {
		t.Fatalf("clone shares storage")
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewDense(2, 2).CopyFrom(NewDense(3, 2))
}

func TestZeroAndFill(t *testing.T) {
	d := NewDense(3, 3)
	d.Fill(2.5)
	for i := range d.Data {
		if d.Data[i] != 2.5 {
			t.Fatalf("Fill failed at %d", i)
		}
	}
	d.Zero()
	for i := range d.Data {
		if d.Data[i] != 0 {
			t.Fatalf("Zero failed at %d", i)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	check := func(rows, cols uint8) bool {
		r, c := int(rows%7)+1, int(cols%7)+1
		rng := rand.New(rand.NewSource(int64(rows)*31 + int64(cols)))
		d := randomDense(rng, r, c)
		tt := d.Transpose().Transpose()
		return Equal(d, tt, 0)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeElements(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(0, 1, 5)
	d.Set(1, 2, 7)
	tr := d.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("bad transpose shape")
	}
	if tr.At(1, 0) != 5 || tr.At(2, 1) != 7 {
		t.Fatalf("transpose values wrong: %v", tr)
	}
}

func TestEqualToleratesSmallDiffs(t *testing.T) {
	a := NewDense(1, 1)
	b := NewDense(1, 1)
	b.Set(0, 0, 1e-8)
	if !Equal(a, b, 1e-6) {
		t.Fatalf("Equal should tolerate 1e-8 at tol 1e-6")
	}
	if Equal(a, b, 1e-12) {
		t.Fatalf("Equal should reject 1e-8 at tol 1e-12")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 2)
	b.Set(1, 1, -3)
	if got := MaxAbsDiff(a, b); got != 3 {
		t.Fatalf("MaxAbsDiff=%v, want 3", got)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	d := NewDense(1, 2)
	d.Set(0, 0, 3)
	d.Set(0, 1, 4)
	if got := d.FrobeniusNorm(); got != 5 {
		t.Fatalf("norm=%v, want 5", got)
	}
}

func TestColSliceView(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randomDense(rng, 4, 6)
	v := d.ColSlice(2, 5)
	if v.Rows != 4 || v.Cols != 3 {
		t.Fatalf("view shape %dx%d", v.Rows, v.Cols)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			if v.At(i, j) != d.At(i, j+2) {
				t.Fatalf("view mismatch at (%d,%d)", i, j)
			}
		}
	}
	v.Set(3, 0, -42)
	if d.At(3, 2) != -42 {
		t.Fatalf("view writes must reach parent")
	}
}

func TestColSliceKernelsRespectStride(t *testing.T) {
	// A GeMM writing through a column view must not touch the columns
	// outside the view.
	rng := rand.New(rand.NewSource(10))
	parent := NewDense(3, 8)
	parent.Fill(7)
	view := parent.ColSlice(2, 6)
	a, b := randomDense(rng, 3, 4), randomDense(rng, 4, 4)
	Gemm(1, a, b, 0, view)
	for i := 0; i < 3; i++ {
		if parent.At(i, 0) != 7 || parent.At(i, 7) != 7 {
			t.Fatalf("GeMM through view leaked outside columns")
		}
	}
	// And the view contents equal a tight-matrix GeMM.
	want := NewDense(3, 4)
	Gemm(1, a, b, 0, want)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if view.At(i, j) != want.At(i, j) {
				t.Fatalf("strided GeMM wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestColSliceOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewDense(2, 3).ColSlice(1, 5)
}
