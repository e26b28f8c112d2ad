// Package tensor provides the dense float32 linear-algebra kernels that
// the rest of the repository builds on: vectors, row-major matrices,
// blocked matrix multiplication, and the fused primitives (dot products,
// axpy, softmax) used by memory-network inference.
//
// It is the portable stand-in for the BLAS libraries the MnnFast paper
// uses (OpenBLAS on CPU, cuBLAS on GPU). The kernels are written for
// clarity and cache-friendliness rather than SIMD peak: all of the
// paper's optimizations are algorithmic (dataflow, spill size, operation
// counts), so they are observable on top of any dense kernel set.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a dense float32 vector.
type Vector []float32

// NewVector returns a zeroed vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
//
//mnnfast:hotpath
func (v Vector) Fill(x float32) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every element of v to 0.
//
//mnnfast:hotpath
func (v Vector) Zero() { v.Fill(0) }

// Sum returns the sum of the elements of v, accumulated in float64 to
// limit rounding drift on long vectors.
//
//mnnfast:hotpath allow=float64 deliberate fixed-order widening accumulation
func (v Vector) Sum() float32 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return float32(s)
}

// Max returns the maximum element of v. It panics on an empty vector.
//
//mnnfast:hotpath
func (v Vector) Max() float32 {
	if len(v) == 0 {
		panic("tensor: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the first maximal element of v, or -1 for
// an empty vector.
//
//mnnfast:hotpath
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// Scale multiplies every element of v by a via the dispatched kernel
// tier (see dispatch.go); scaleGo is the portable tier and ScaleScalar
// the reference twin. All tiers are bit-identical: v[i] *= a rounds
// once per element in every implementation.
//
//mnnfast:hotpath
func (v Vector) Scale(a float32) { scaleImpl(v, a) }

// scaleGo is the portable unrolled Scale tier.
//
//mnnfast:hotpath
func scaleGo(v Vector, a float32) {
	n := len(v)
	i := 0
	for ; i+4 <= n; i += 4 {
		v[i] *= a
		v[i+1] *= a
		v[i+2] *= a
		v[i+3] *= a
	}
	for ; i < n; i++ {
		v[i] *= a
	}
}

// AddInPlace adds w into v element-wise via the dispatched kernel tier.
// The lengths must match. addGo is the portable tier and AddScalar the
// reference twin; all tiers are bit-identical (one rounding per
// element, in index order).
//
//mnnfast:hotpath
func (v Vector) AddInPlace(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AddInPlace length mismatch %d != %d", len(v), len(w)))
	}
	addImpl(v, w)
}

// addGo is the portable unrolled element-wise add tier. Lengths are
// validated by the caller.
//
//mnnfast:hotpath
func addGo(v, w Vector) {
	n := len(v)
	w = w[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v[i] += w[i]
		v[i+1] += w[i+1]
		v[i+2] += w[i+2]
		v[i+3] += w[i+3]
	}
	for ; i < n; i++ {
		v[i] += w[i]
	}
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float32 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return float32(math.Sqrt(s))
}

// Dot returns the inner product of a and b via the dispatched kernel
// tier. The lengths must match. dotGo is the portable tier and
// DotScalar the reference twin. Tiers differ only in accumulator
// reassociation (scalar: one; go: four; avx2: eight lanes in a fixed
// reduction order) — per-multiply rounding is identical everywhere.
//
//mnnfast:hotpath
func Dot(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d != %d", len(a), len(b)))
	}
	return dotImpl(a, b)
}

// dotGo is the portable Dot tier: four-way unrolled accumulation with
// the bounds check hoisted — measurably faster without SIMD and
// slightly more accurate than a single serial accumulator. Lengths are
// validated by the caller.
//
//mnnfast:hotpath
func dotGo(a, b Vector) float32 {
	var s float32
	var s0, s1, s2, s3 float32
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s + s0 + s1 + s2 + s3
}

// Dot4 computes four inner products of u against r0..r3 in one pass.
// Register blocking over rows: each element of u is loaded once and
// multiplied into four accumulators, cutting the load count per
// multiply-add nearly in half versus four Dot calls. The chunk engines
// use it for the inner-product step, where consecutive memory rows
// share the question vector.
//
//mnnfast:hotpath
func Dot4(u, r0, r1, r2, r3 Vector) (d0, d1, d2, d3 float32) {
	n := len(u)
	if len(r0) != n || len(r1) != n || len(r2) != n || len(r3) != n {
		panic("tensor: Dot4 length mismatch")
	}
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	var s0, s1, s2, s3 float32
	for i := 0; i < n; i++ {
		x := u[i]
		s0 += x * r0[i]
		s1 += x * r1[i]
		s2 += x * r2[i]
		s3 += x * r3[i]
	}
	return s0, s1, s2, s3
}

// Axpy computes y += a*x element-wise via the dispatched kernel tier.
// The lengths must match. axpyGo is the portable tier and AxpyScalar
// the reference twin; the fast tiers (go, avx2) are bit-identical and
// both skip the pass entirely when a == 0 (the zero-skipping fast-out).
//
//mnnfast:hotpath
func Axpy(a float32, x, y Vector) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	axpyImpl(a, x, y)
}

// axpyGo is the portable unrolled Axpy tier. Lengths are validated by
// the caller.
//
//mnnfast:hotpath
func axpyGo(a float32, x, y Vector) {
	if a == 0 {
		return
	}
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += a * x[i]
	}
}

// Axpy4 computes y += a0·x0 + a1·x1 + a2·x2 + a3·x3 in one pass.
// Register blocking over sources: each element of y is loaded and
// stored once per four multiply-adds instead of once per one, which is
// the dominant saving in the weighted-sum step o += Σ eᵢ·m_iᴼᵁᵀ when
// zero-skipping is off and rows are consumed in order.
//
//mnnfast:hotpath
func Axpy4(a0, a1, a2, a3 float32, x0, x1, x2, x3, y Vector) {
	n := len(y)
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic("tensor: Axpy4 length mismatch")
	}
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i := 0; i < n; i++ {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// DotRows computes y[i] = row_i · x for every row of the contiguous
// row-major block rows (len(y) rows of len(x) columns) in one
// dispatched call. Each y[i] is bit-identical to the active tier's
// Dot(row_i, x); the block form only removes the per-row call, length
// check and vector-state transition, and lets the avx2 tier share each
// load of x across four rows.
//
//mnnfast:hotpath
func DotRows(rows []float32, x, y Vector) {
	if len(rows) != len(y)*len(x) {
		panic(fmt.Sprintf("tensor: DotRows shape mismatch rows=%d x=%d y=%d", len(rows), len(x), len(y)))
	}
	dotRowsImpl(rows, x, y)
}

// dotRowsGo is the portable DotRows tier. Shapes are validated by the
// caller.
//
//mnnfast:hotpath
func dotRowsGo(rows []float32, x, y Vector) {
	cols := len(x)
	for i := range y {
		y[i] = dotGo(rows[i*cols:(i+1)*cols], x)
	}
}

// AxpyRows accumulates acc += Σ w[i]·row_i over the contiguous
// row-major block rows (len(w) rows of len(acc) columns) in ascending
// row order, bypassing every row whose weight is below cut — the
// zero-skipping test of the weighted sum — and returning how many it
// bypassed. The result is bit-identical to sweeping the active tier's
// Axpy over the kept rows; the avx2 tier holds the accumulator in
// registers across the whole block instead of loading and storing it
// once per row. A NaN weight is never below cut.
//
//mnnfast:hotpath
func AxpyRows(w Vector, rows []float32, cut float32, acc Vector) (skipped int) {
	if len(rows) != len(w)*len(acc) {
		panic(fmt.Sprintf("tensor: AxpyRows shape mismatch rows=%d w=%d acc=%d", len(rows), len(w), len(acc)))
	}
	return axpyRowsImpl(w, rows, cut, acc)
}

// axpyRowsGo is the portable AxpyRows tier. Shapes are validated by
// the caller.
//
//mnnfast:hotpath
func axpyRowsGo(w Vector, rows []float32, cut float32, acc Vector) int {
	cols, skipped := len(acc), 0
	for i, a := range w {
		if a < cut {
			skipped++
			continue
		}
		axpyGo(a, rows[i*cols:(i+1)*cols], acc)
	}
	return skipped
}

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// ErrShape reports incompatible matrix/vector shapes passed to a kernel
// that returns errors rather than panicking.
var ErrShape = errors.New("tensor: incompatible shapes")

// NewMatrix returns a zeroed rows×cols matrix. It panics if either
// dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d): negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from equal-length rows. It panics if the rows
// are ragged.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: FromRows ragged row %d: %d != %d", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float32) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a Vector aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector {
	return Vector(m.Data[i*m.Cols : (i+1)*m.Cols])
}

// RowSlice returns rows [lo, hi) as a matrix aliasing the same storage.
func (m *Matrix) RowSlice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("tensor: RowSlice [%d, %d) out of range for %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to x.
func (m *Matrix) Fill(x float32) {
	for i := range m.Data {
		m.Data[i] = x
	}
}

// SizeBytes returns the storage footprint of the matrix payload. The
// cache and bandwidth models size working sets with it.
func (m *Matrix) SizeBytes() int64 { return int64(len(m.Data)) * 4 }

// Transpose returns a newly allocated mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j, x := range ri {
			t.Data[j*t.Cols+i] = x
		}
	}
	return t
}

// Equal reports whether a and b have the same shape and elements within
// absolute tolerance tol.
func Equal(a, b *Matrix, tol float32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, x := range a.Data {
		if absf(x-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// equal-length vectors a and b.
func MaxAbsDiff(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff length mismatch %d != %d", len(a), len(b)))
	}
	var m float32
	for i := range a {
		if d := absf(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func absf(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}
