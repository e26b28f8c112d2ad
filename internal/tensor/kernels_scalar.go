package tensor

import "math"

// Scalar reference kernels.
//
// Every unrolled or otherwise transformed kernel in this package keeps a
// one-loop scalar twin here. The references are the ground truth the
// property tests pin the fast kernels against (see kernels_test.go);
// they are never called on the serving path.

// DotScalar is the reference inner product: one serial accumulator, no
// unrolling.
func DotScalar(a, b Vector) float32 {
	if len(a) != len(b) {
		panic("tensor: DotScalar length mismatch")
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AxpyScalar is the reference y += a·x.
func AxpyScalar(a float32, x, y Vector) {
	if len(x) != len(y) {
		panic("tensor: AxpyScalar length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}

// ScaleScalar is the reference v *= a.
func ScaleScalar(v Vector, a float32) {
	for i := range v {
		v[i] *= a
	}
}

// AddScalar is the reference v += w.
func AddScalar(v, w Vector) {
	if len(v) != len(w) {
		panic("tensor: AddScalar length mismatch")
	}
	for i := range v {
		v[i] += w[i]
	}
}

// DotRowsScalar is the reference for DotRows: one DotScalar per row of
// the row-major block.
func DotRowsScalar(rows []float32, x, y Vector) {
	cols := len(x)
	for i := range y {
		y[i] = DotScalar(rows[i*cols:(i+1)*cols], x)
	}
}

// AxpyRowsScalar is the reference for AxpyRows: the ascending
// AxpyScalar sweep over the rows whose weight is not below cut.
func AxpyRowsScalar(w Vector, rows []float32, cut float32, acc Vector) int {
	cols, skipped := len(acc), 0
	for i, a := range w {
		if a < cut {
			skipped++
			continue
		}
		AxpyScalar(a, rows[i*cols:(i+1)*cols], acc)
	}
	return skipped
}

// ExpIntoScalar is the reference for ExpInto: float64 math.Exp per
// element, float64 accumulation.
func ExpIntoScalar(dst, src Vector, shift float32) float32 {
	if len(dst) != len(src) {
		panic("tensor: ExpIntoScalar length mismatch")
	}
	var sum float64
	for i, x := range src {
		e := float32(math.Exp(float64(x - shift)))
		dst[i] = e
		sum += float64(e)
	}
	return float32(sum)
}
