//go:build amd64

package tensor

// Go declarations for the AVX2 assembly kernels (kernels_amd64.s) and
// the thin wrappers that adapt them to the dispatch table. The
// //mnnfast:asm twin= directives name each kernel's scalar reference;
// the asmtwin analyzer enforces that every assembly-backed kernel
// declares one, and the tier property tests (dispatch_test.go) pin all
// registered tiers against those twins, so an assembly kernel cannot
// land without its reference pinning.

//mnnfast:asm twin=DotScalar
//go:noescape
func dotAVX2(a, b Vector) float32

//mnnfast:asm twin=AxpyScalar
//go:noescape
func axpyAVX2(a float32, x, y Vector)

//mnnfast:asm twin=ScaleScalar
//go:noescape
func scaleAVX2(v Vector, a float32)

//mnnfast:asm twin=AddScalar
//go:noescape
func addAVX2(v, w Vector)

//mnnfast:asm twin=ExpIntoScalar
//go:noescape
func expIntoAVX2(dst, src Vector, shift float32, acc *[4]float64) int

//mnnfast:asm twin=DotRowsScalar
//go:noescape
func dotRowsAVX2(rows []float32, x, y Vector)

//mnnfast:asm twin=AxpyRowsScalar
//go:noescape
func axpyRowsAVX2(w Vector, rows []float32, cut float32, acc Vector) int

// expKernelConstsRef exposes the assembly constant table for
// TestExpConstantsMatchAsm; it is never on the serving path.
//
//mnnfast:asm probe
func expKernelConstsRef() *[14]float32

// axpyAVX2Tier mirrors the go tier's a == 0 fast-out (the zero-skip
// path) before entering the assembly loop.
//
//mnnfast:hotpath
func axpyAVX2Tier(a float32, x, y Vector) {
	if a == 0 {
		return
	}
	axpyAVX2(a, x, y)
}

// expIntoAVX2Tier runs the assembly body over the multiple-of-4 prefix
// and finishes the tail with the scalar Expf, accumulating into lane 0
// — exactly expIntoGo's structure, so elements and the returned sum
// are bit-identical to the go tier.
//
//mnnfast:hotpath allow=float64 fixed-order float64 lane sums match the go tier bit-for-bit
func expIntoAVX2Tier(dst, src Vector, shift float32) float32 {
	var acc [4]float64
	n := len(src)
	i := 0
	if n >= 4 {
		i = expIntoAVX2(dst, src, shift, &acc)
	}
	for ; i < n; i++ {
		e := Expf(src[i] - shift)
		dst[i] = e
		acc[0] += float64(e)
	}
	return float32((acc[0] + acc[1]) + (acc[2] + acc[3]))
}
