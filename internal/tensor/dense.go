// Package tensor provides row-major dense float32 matrices and the blocked,
// parallel matrix kernels (GeMM variants, elementwise maps, reductions) that
// the rest of the framework builds on. All kernels are pure Go so the whole
// module works without cgo; parallel variants split work across goroutines.
package tensor

import (
	"fmt"
	"math"
)

// Dense is a row-major float32 matrix. A Dense with nil Data but nonzero
// dimensions is a "phantom" matrix: it carries shape for cost/memory
// accounting but no values (used by the simulator's structure-only mode).
type Dense struct {
	Rows, Cols int
	Stride     int // distance between row starts in Data; Stride >= Cols
	Data       []float32
	// Buf is the sim.BufRegistry stamp of the buffer this matrix views
	// (0 = unregistered). Views of a registered buffer carry its ID so
	// task closures can declare which buffers they touch; the stamp is
	// identity metadata only — no kernel reads it, and derived copies
	// (Clone) deliberately drop it because they own fresh storage.
	Buf int
}

// NewDense allocates a Rows x Cols zero matrix with a tight stride.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Stride: cols, Data: make([]float32, rows*cols)}
}

// NewPhantom returns a matrix that has a shape but no backing storage.
// Kernels in phantom mode only account for its cost and memory.
func NewPhantom(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Stride: cols}
}

// IsPhantom reports whether d carries no values.
func (d *Dense) IsPhantom() bool { return d.Data == nil }

// Bytes returns the memory footprint of the matrix payload in bytes,
// counting the full logical extent whether or not storage is materialized.
func (d *Dense) Bytes() int64 { return int64(d.Rows) * int64(d.Cols) * 4 }

// At returns the element at (i, j).
func (d *Dense) At(i, j int) float32 {
	d.check(i, j)
	return d.Data[i*d.Stride+j]
}

// Set assigns the element at (i, j).
func (d *Dense) Set(i, j int, v float32) {
	d.check(i, j)
	d.Data[i*d.Stride+j] = v
}

func (d *Dense) check(i, j int) {
	if i < 0 || i >= d.Rows || j < 0 || j >= d.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of bounds %dx%d", i, j, d.Rows, d.Cols))
	}
	if d.Data == nil {
		panic("tensor: element access on phantom matrix")
	}
}

// Row returns the i-th row as a slice aliasing the matrix storage.
func (d *Dense) Row(i int) []float32 {
	if i < 0 || i >= d.Rows {
		panic(rowError{i, d.Rows})
	}
	return d.Data[i*d.Stride : i*d.Stride+d.Cols]
}

// rowError is Row's panic value. It formats only when printed, which keeps
// fmt out of Row's body and Row inside the compiler's inlining budget.
type rowError struct{ i, rows int }

func (e rowError) Error() string { return fmt.Sprintf("tensor: row %d out of bounds %d", e.i, e.rows) }

// RowSlice returns a view of rows [lo, hi) sharing storage with d.
func (d *Dense) RowSlice(lo, hi int) *Dense {
	if lo < 0 || hi < lo || hi > d.Rows {
		panic(fmt.Sprintf("tensor: row slice [%d,%d) out of bounds %d", lo, hi, d.Rows))
	}
	v := &Dense{Rows: hi - lo, Cols: d.Cols, Stride: d.Stride}
	if d.Data != nil {
		if hi == lo {
			v.Data = []float32{}
		} else {
			v.Data = d.Data[lo*d.Stride : (hi-1)*d.Stride+d.Cols]
		}
	}
	return v
}

// Clone returns a deep copy of d (phantoms clone to phantoms).
func (d *Dense) Clone() *Dense {
	c := &Dense{Rows: d.Rows, Cols: d.Cols, Stride: d.Cols}
	if d.Data == nil {
		return c
	}
	c.Data = make([]float32, d.Rows*d.Cols)
	for i := 0; i < d.Rows; i++ {
		copy(c.Data[i*c.Stride:i*c.Stride+c.Cols], d.Row(i))
	}
	return c
}

// CopyFrom copies src's values into d; shapes must match exactly.
func (d *Dense) CopyFrom(src *Dense) {
	if d.Rows != src.Rows || d.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: copy shape mismatch %dx%d <- %dx%d", d.Rows, d.Cols, src.Rows, src.Cols))
	}
	if d.Data == nil || src.Data == nil {
		return
	}
	for i := 0; i < d.Rows; i++ {
		copy(d.Row(i), src.Row(i))
	}
}

// Zero sets every element of d to zero.
func (d *Dense) Zero() {
	if d.Data == nil {
		return
	}
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of d to v. Test support: constant fixtures.
func (d *Dense) Fill(v float32) {
	if d.Data == nil {
		return
	}
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Equal reports whether a and b have identical shape and elements within tol.
// Test support, and the compare the floateq rule points code to.
func Equal(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	if a.Data == nil && b.Data == nil {
		return true
	}
	if a.Data == nil || b.Data == nil {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Abs(float64(ra[j])-float64(rb[j])) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b. Shapes must match.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var m float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			d := math.Abs(float64(ra[j]) - float64(rb[j]))
			if d > m {
				m = d
			}
		}
	}
	return m
}

// FrobeniusNorm returns sqrt(sum of squares) of the matrix.
func (d *Dense) FrobeniusNorm() float64 {
	var s float64
	for i := 0; i < d.Rows; i++ {
		for _, v := range d.Row(i) {
			s += float64(v) * float64(v)
		}
	}
	return math.Sqrt(s)
}

// Transpose returns a newly allocated transpose of d.
func (d *Dense) Transpose() *Dense {
	if d.Data == nil {
		return NewPhantom(d.Cols, d.Rows)
	}
	t := NewDense(d.Cols, d.Rows)
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			t.Data[j*t.Stride+i] = v
		}
	}
	return t
}

// String renders small matrices for debugging; large ones are summarized.
func (d *Dense) String() string {
	if d.Data == nil {
		return fmt.Sprintf("Dense(phantom %dx%d)", d.Rows, d.Cols)
	}
	if d.Rows*d.Cols > 64 {
		return fmt.Sprintf("Dense(%dx%d, |.|_F=%.4g)", d.Rows, d.Cols, d.FrobeniusNorm())
	}
	s := fmt.Sprintf("Dense(%dx%d)[", d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < d.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", d.At(i, j))
		}
	}
	return s + "]"
}

// ColSlice returns a view of columns [lo, hi) sharing storage with d —
// rows keep the parent's stride, so writes through the view land in the
// parent. Test support: strided operands for the kernel tests.
func (d *Dense) ColSlice(lo, hi int) *Dense {
	if lo < 0 || hi < lo || hi > d.Cols {
		panic(fmt.Sprintf("tensor: col slice [%d,%d) out of bounds %d", lo, hi, d.Cols))
	}
	v := &Dense{Rows: d.Rows, Cols: hi - lo, Stride: d.Stride}
	if d.Data != nil {
		if d.Rows == 0 || hi == lo {
			v.Data = []float32{}
		} else {
			v.Data = d.Data[lo : (d.Rows-1)*d.Stride+hi]
		}
	}
	return v
}
