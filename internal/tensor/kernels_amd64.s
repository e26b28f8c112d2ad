//go:build amd64

#include "textflag.h"

// AVX2 kernel tier (see dispatch.go for the tier contract and
// kernels_amd64.go for the Go declarations).
//
// Determinism rules, shared by every routine here:
//
//   - No FMA contraction: products and sums use separate VMULPS/VADDPS
//     so each multiply rounds exactly like the Go kernels.
//   - Fixed reduction order: dotAVX2 keeps one 8-lane accumulator and
//     reduces it as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), then folds
//     the scalar tail in index order — deterministic for a given input
//     on every AVX2 host.
//   - expIntoAVX2 replicates Expf's exact operation order per element
//     (shift subtract, range clamp, split-ln2 reduction, Horner
//     polynomial, two exact power-of-two scalings, NaN/overflow/
//     underflow overrides) and expIntoGo's float64 lane-sum pattern,
//     so elements and partial sums are bit-identical to the go tier.
//   - All loads/stores are unaligned (VMOVUPS); the arena aligns pooled
//     backing to 32 bytes so aligned access is the common fast case,
//     but sub-slices at any offset are correct.

// Constants for expIntoAVX2, bit patterns of the exp.go Go constants
// (asserted equal by TestExpConstantsMatchAsm).
GLOBL ·expKernelConsts(SB), RODATA|NOPTR, $56
DATA ·expKernelConsts+0(SB)/4, $0x3FB8AA3B  // log2e = float32(1/ln2)
DATA ·expKernelConsts+4(SB)/4, $0x4B400000  // expRound = 1.5 * 2^23
DATA ·expKernelConsts+8(SB)/4, $0x3F318000  // expC1 (ln2 high part)
DATA ·expKernelConsts+12(SB)/4, $0xB95E8083 // expC2 (ln2 low part)
DATA ·expKernelConsts+16(SB)/4, $0x39506967 // expP0
DATA ·expKernelConsts+20(SB)/4, $0x3AB743CE // expP1
DATA ·expKernelConsts+24(SB)/4, $0x3C088908 // expP2
DATA ·expKernelConsts+28(SB)/4, $0x3D2AA9C1 // expP3
DATA ·expKernelConsts+32(SB)/4, $0x3E2AAAAA // expP4
DATA ·expKernelConsts+36(SB)/4, $0x3F000000 // expP5
DATA ·expKernelConsts+40(SB)/4, $0x3F800000 // 1.0 (also the exponent bias in bits)
DATA ·expKernelConsts+44(SB)/4, $0xC2AEAC4F // expLo
DATA ·expKernelConsts+48(SB)/4, $0x42B17217 // expHi
DATA ·expKernelConsts+52(SB)/4, $0x7F800000 // +Inf

// func dotAVX2(a, b Vector) float32
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPS Y0, Y0, Y0        // 8-lane accumulator
	XORQ AX, AX

dotloop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   dotreduce
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS (DI)(AX*4), Y2
	VMULPS Y2, Y1, Y1        // separate mul + add: no FMA contraction
	VADDPS Y1, Y0, Y0
	MOVQ DX, AX
	JMP  dotloop8

dotreduce:
	// Fixed-order 8-lane reduction (see file header).
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0        // q_j = l_j + l_{j+4}
	VPERMILPS $0xEE, X0, X1  // (q2, q3, q2, q3)
	VADDPS X1, X0, X0        // (q0+q2, q1+q3, _, _)
	VPERMILPS $0x55, X0, X1  // lane 1 → lane 0
	VADDSS X1, X0, X0        // (q0+q2) + (q1+q3)

dottail:
	CMPQ AX, CX
	JAE  dotdone
	VMOVSS (SI)(AX*4), X1
	VMOVSS (DI)(AX*4), X2
	VMULSS X2, X1, X1
	VADDSS X1, X0, X0
	INCQ AX
	JMP  dottail

dotdone:
	VZEROUPPER
	VMOVSS X0, ret+48(FP)
	RET

// func axpyAVX2(a float32, x, y Vector)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX

axpyloop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   axpytail
	VMOVUPS (SI)(AX*4), Y1
	VMULPS Y0, Y1, Y1
	VMOVUPS (DI)(AX*4), Y2
	VADDPS Y1, Y2, Y2
	VMOVUPS Y2, (DI)(AX*4)
	MOVQ DX, AX
	JMP  axpyloop8

axpytail:
	CMPQ AX, CX
	JAE  axpydone
	VMOVSS (SI)(AX*4), X1
	VMULSS X0, X1, X1
	VMOVSS (DI)(AX*4), X2
	VADDSS X1, X2, X2
	VMOVSS X2, (DI)(AX*4)
	INCQ AX
	JMP  axpytail

axpydone:
	VZEROUPPER
	RET

// func dotRowsAVX2(rows []float32, x, y Vector)
//
// y[i] = row_i · x over a contiguous row-major block, four rows per
// pass: each 8-lane group of x is loaded once and multiplied into four
// independent accumulators. Per row the operation sequence is
// dotAVX2's — one 8-lane accumulator over the full groups in index
// order, the fixed ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) reduction
// (done for the four rows at once by two transposing adds), then the
// scalar column tail in index order — so every y[i] is bit-identical
// to dotAVX2(row_i, x). The last 0..3 rows run dotAVX2's own loop.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ rows_base+0(FP), SI
	MOVQ x_base+24(FP), DI
	MOVQ x_len+32(FP), CX    // columns
	MOVQ y_base+48(FP), BX
	MOVQ y_len+56(FP), R10   // rows left
	MOVQ CX, R8
	ANDQ $-8, R8             // columns covered by full 8-lane groups
	MOVQ CX, R9
	SHLQ $2, R9              // row stride in bytes

dotrows4:
	CMPQ R10, $4
	JB   dotrows1
	LEAQ (SI)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX

dotrows4group:
	CMPQ AX, R8
	JAE  dotrows4reduce
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS (SI)(AX*4), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y0, Y0
	VMOVUPS (R11)(AX*4), Y6
	VMULPS Y4, Y6, Y6
	VADDPS Y6, Y1, Y1
	VMOVUPS (R12)(AX*4), Y7
	VMULPS Y4, Y7, Y7
	VADDPS Y7, Y2, Y2
	VMOVUPS (R13)(AX*4), Y8
	VMULPS Y4, Y8, Y8
	VADDPS Y8, Y3, Y3
	ADDQ $8, AX
	JMP  dotrows4group

dotrows4reduce:
	// q_j = l_j + l_{j+4} per row.
	VEXTRACTF128 $1, Y0, X4
	VADDPS X4, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VADDPS X4, X1, X1
	VEXTRACTF128 $1, Y2, X4
	VADDPS X4, X2, X2
	VEXTRACTF128 $1, Y3, X4
	VADDPS X4, X3, X3
	// (q0+q2, q1+q3) for rows 0,1 in X4 and rows 2,3 in X5.
	VUNPCKLPD X1, X0, X4
	VUNPCKHPD X1, X0, X5
	VADDPS X5, X4, X4
	VUNPCKLPD X3, X2, X5
	VUNPCKHPD X3, X2, X6
	VADDPS X6, X5, X5
	// (q0+q2) + (q1+q3), one lane per row.
	VSHUFPS $0x88, X5, X4, X0
	VSHUFPS $0xDD, X5, X4, X1
	VADDPS X1, X0, X0
	VMOVUPS X0, (BX)
	CMPQ R8, CX
	JE   dotrows4next

	// Scalar column tail, row by row, folded into the stored sums.
	MOVQ SI, DX
	XORQ R11, R11

dotrows4tailrow:
	VMOVSS (BX)(R11*4), X0
	MOVQ R8, AX

dotrows4tailcol:
	VMOVSS (DX)(AX*4), X1
	VMOVSS (DI)(AX*4), X2
	VMULSS X2, X1, X1
	VADDSS X1, X0, X0
	INCQ AX
	CMPQ AX, CX
	JB   dotrows4tailcol
	VMOVSS X0, (BX)(R11*4)
	ADDQ R9, DX
	INCQ R11
	CMPQ R11, $4
	JB   dotrows4tailrow

dotrows4next:
	LEAQ (SI)(R9*4), SI
	ADDQ $16, BX
	SUBQ $4, R10
	JMP  dotrows4

dotrows1:
	TESTQ R10, R10
	JZ   dotrowsdone
	VXORPS Y0, Y0, Y0
	XORQ AX, AX

dotrows1group:
	CMPQ AX, R8
	JAE  dotrows1reduce
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS (DI)(AX*4), Y2
	VMULPS Y2, Y1, Y1
	VADDPS Y1, Y0, Y0
	ADDQ $8, AX
	JMP  dotrows1group

dotrows1reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VPERMILPS $0xEE, X0, X1
	VADDPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VADDSS X1, X0, X0

dotrows1tail:
	CMPQ AX, CX
	JAE  dotrows1store
	VMOVSS (SI)(AX*4), X1
	VMOVSS (DI)(AX*4), X2
	VMULSS X2, X1, X1
	VADDSS X1, X0, X0
	INCQ AX
	JMP  dotrows1tail

dotrows1store:
	VMOVSS X0, (BX)
	ADDQ R9, SI
	ADDQ $4, BX
	DECQ R10
	JMP  dotrows1

dotrowsdone:
	VZEROUPPER
	RET

// Lane masks for axpyRowsAVX2's column groups: eight all-ones words
// followed by eight zero words, so the 32 bytes at offset 32-4r enable
// exactly the first r lanes.
GLOBL ·laneMasks(SB), RODATA|NOPTR, $64
DATA ·laneMasks+0(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA ·laneMasks+8(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA ·laneMasks+16(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA ·laneMasks+24(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA ·laneMasks+32(SB)/8, $0
DATA ·laneMasks+40(SB)/8, $0
DATA ·laneMasks+48(SB)/8, $0
DATA ·laneMasks+56(SB)/8, $0

// LANEMASK loads into mask the lane mask of the 8-column group that
// starts lo columns into the current tile: min(max(CX-lo, 0), 8) lanes
// enabled. Expects R12 = 0, DX = 8, R11 = &laneMasks; clobbers AX.
#define LANEMASK(lo, mask) \
	MOVQ CX, AX; \
	SUBQ $lo, AX; \
	CMOVQLT R12, AX; \
	CMPQ AX, DX; \
	CMOVQGT DX, AX; \
	NEGQ AX; \
	VMOVDQU 32(R11)(AX*4), mask

// func axpyRowsAVX2(w Vector, rows []float32, cut float32, acc Vector) int
//
// acc += Σ w[i]·row_i over a contiguous row-major block, ascending in
// i, skipping (and counting) rows with w[i] < cut. Columns are tiled 32
// wide: a tile's four 8-lane accumulators are loaded from acc once,
// stay in registers across every row of the block, and are stored once
// — axpyAVX2's per-row load and store of acc is what this kernel
// removes. Each lane sees exactly axpyAVX2's sequence (one VMULPS, one
// VADDPS per kept row, in row order), and a ±0 weight bypasses the row
// like axpyAVX2Tier's fast-out, so the result is bit-identical to the
// ascending axpyAVX2Tier sweep. Partial and absent column groups use
// masked loads and stores (laneMasks), so any column count runs the
// same loop; disabled lanes compute garbage that is never stored.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-88
	MOVQ w_base+0(FP), R8
	MOVQ w_len+8(FP), R10      // rows
	MOVQ rows_base+24(FP), SI  // row 0, at the tile's first column
	VMOVSS cut+48(FP), X13
	MOVQ acc_base+56(FP), DI   // acc, at the tile's first column
	MOVQ acc_len+64(FP), CX    // columns left, this tile included
	MOVQ CX, R9
	SHLQ $2, R9                // row stride in bytes
	LEAQ ·laneMasks(SB), R11

axpyrowstile:
	XORQ R12, R12
	MOVQ $8, DX
	LANEMASK(0, Y8)
	LANEMASK(8, Y9)
	LANEMASK(16, Y10)
	LANEMASK(24, Y11)
	VMASKMOVPS (DI), Y8, Y0
	VMASKMOVPS 32(DI), Y9, Y1
	VMASKMOVPS 64(DI), Y10, Y2
	VMASKMOVPS 96(DI), Y11, Y3
	MOVQ SI, BX                // current row
	XORQ AX, AX                // row index; R12 = 0 counts skipped rows

axpyrowsrow:
	CMPQ AX, R10
	JAE  axpyrowsstore
	VBROADCASTSS (R8)(AX*4), Y12
	VUCOMISS X13, X12
	JP   axpyrowskeep          // unordered: a NaN is never below cut
	JB   axpyrowsskip

axpyrowskeep:
	MOVL (R8)(AX*4), DX
	TESTL $0x7FFFFFFF, DX
	JZ   axpyrowsnext          // ±0 weight: the Axpy fast-out
	VMASKMOVPS (BX), Y8, Y4
	VMULPS Y12, Y4, Y4
	VADDPS Y4, Y0, Y0
	VMASKMOVPS 32(BX), Y9, Y5
	VMULPS Y12, Y5, Y5
	VADDPS Y5, Y1, Y1
	VMASKMOVPS 64(BX), Y10, Y6
	VMULPS Y12, Y6, Y6
	VADDPS Y6, Y2, Y2
	VMASKMOVPS 96(BX), Y11, Y7
	VMULPS Y12, Y7, Y7
	VADDPS Y7, Y3, Y3

axpyrowsnext:
	ADDQ R9, BX
	INCQ AX
	JMP  axpyrowsrow

axpyrowsskip:
	INCQ R12
	JMP  axpyrowsnext

axpyrowsstore:
	VMASKMOVPS Y0, Y8, (DI)
	VMASKMOVPS Y1, Y9, 32(DI)
	VMASKMOVPS Y2, Y10, 64(DI)
	VMASKMOVPS Y3, Y11, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JG   axpyrowstile          // every tile counts the same skipped rows
	MOVQ R12, ret+80(FP)
	VZEROUPPER
	RET

// func scaleAVX2(v Vector, a float32)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-28
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	VBROADCASTSS a+24(FP), Y0
	XORQ AX, AX

scaleloop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   scaletail
	VMOVUPS (SI)(AX*4), Y1
	VMULPS Y0, Y1, Y1
	VMOVUPS Y1, (SI)(AX*4)
	MOVQ DX, AX
	JMP  scaleloop8

scaletail:
	CMPQ AX, CX
	JAE  scaledone
	VMOVSS (SI)(AX*4), X1
	VMULSS X0, X1, X1
	VMOVSS X1, (SI)(AX*4)
	INCQ AX
	JMP  scaletail

scaledone:
	VZEROUPPER
	RET

// func addAVX2(v, w Vector)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ v_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ v_len+8(FP), CX
	XORQ AX, AX

addloop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   addtail
	VMOVUPS (DI)(AX*4), Y1
	VMOVUPS (SI)(AX*4), Y2
	VADDPS Y2, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	MOVQ DX, AX
	JMP  addloop8

addtail:
	CMPQ AX, CX
	JAE  adddone
	VMOVSS (DI)(AX*4), X1
	VMOVSS (SI)(AX*4), X2
	VADDSS X2, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ AX
	JMP  addtail

adddone:
	VZEROUPPER
	RET

// func expIntoAVX2(dst, src Vector, shift float32, acc *[4]float64) int
//
// Writes exp(src_i - shift) into dst for the longest multiple-of-4
// prefix and returns the number of elements processed; the Go wrapper
// (expIntoAVX2Tier) finishes the <4 tail with Expf. Float64 lane sums
// accumulate into *acc exactly like expIntoGo's s0..s3: lane k sums
// elements k, k+4, k+8, … in index order.
//
// Per element the operation sequence is Expf's, step for step:
//
//	x := src_i - shift
//	c := clamp(x)                   // min/max against expHi/expLo
//	t := c*log2e + expRound; n := t - expRound
//	r := c - n*expC1; r -= n*expC2
//	p := Horner(P0..P5, r); p = p*r*r + r + 1
//	ni := int32(n); half := ni/2 (truncated)
//	p *= 2^half; p *= 2^(ni-half)   // both factors exact powers of two
//	overrides: x > expHi → +Inf; x < expLo → 0; NaN x → x
//
// Register plan (shared by the 8-wide and 4-wide blocks; the X
// registers are the low halves of the same Y registers, so the
// broadcast constants below serve both):
//
//	Y7 log2e  Y12 expRound  Y13 expC1  Y14 expC2  Y15 shift
//	Y11 float64 lane accumulator
//	Y0 x (preserved for the NaN blend)  Y1 c  Y2 n/ni  Y3 r  Y4 p
//	Y5, Y6 scratch + broadcast constants  Y8 NaN mask  Y9 hi  Y10 lo
TEXT ·expIntoAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ acc+56(FP), BX
	VBROADCASTSS shift+48(FP), Y15
	VBROADCASTSS ·expKernelConsts+0(SB), Y7
	VBROADCASTSS ·expKernelConsts+4(SB), Y12
	VBROADCASTSS ·expKernelConsts+8(SB), Y13
	VBROADCASTSS ·expKernelConsts+12(SB), Y14
	VMOVUPD (BX), Y11
	XORQ AX, AX

exploop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   exptail4
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS Y15, Y0, Y0                        // x = src - shift

	// Masks from the unclamped x, then clamp into the finite range.
	VCMPPS $3, Y0, Y0, Y8                     // NaN (unordered)
	VBROADCASTSS ·expKernelConsts+48(SB), Y5  // expHi
	VBROADCASTSS ·expKernelConsts+44(SB), Y6  // expLo
	VCMPPS $0x1E, Y5, Y0, Y9                  // x > hi (GT_OQ)
	VCMPPS $0x11, Y6, Y0, Y10                 // x < lo (LT_OQ)
	VMINPS Y5, Y0, Y1                         // NaN → hi: always finite below
	VMAXPS Y6, Y1, Y1

	// n = nearest-integer(c/ln2) via the 1.5*2^23 rounding trick.
	VMULPS Y7, Y1, Y2
	VADDPS Y12, Y2, Y2
	VSUBPS Y12, Y2, Y2

	// r = c - n*C1 - n*C2 (split ln2; separate mul/sub, no FMA).
	VMULPS Y13, Y2, Y3
	VSUBPS Y3, Y1, Y3
	VMULPS Y14, Y2, Y4
	VSUBPS Y4, Y3, Y3

	// Horner polynomial, Expf's step order.
	VBROADCASTSS ·expKernelConsts+16(SB), Y4  // p = P0
	VMULPS Y3, Y4, Y4
	VBROADCASTSS ·expKernelConsts+20(SB), Y5
	VADDPS Y5, Y4, Y4                         // p = p*r + P1
	VMULPS Y3, Y4, Y4
	VBROADCASTSS ·expKernelConsts+24(SB), Y5
	VADDPS Y5, Y4, Y4                         // … + P2
	VMULPS Y3, Y4, Y4
	VBROADCASTSS ·expKernelConsts+28(SB), Y5
	VADDPS Y5, Y4, Y4                         // … + P3
	VMULPS Y3, Y4, Y4
	VBROADCASTSS ·expKernelConsts+32(SB), Y5
	VADDPS Y5, Y4, Y4                         // … + P4
	VMULPS Y3, Y4, Y4
	VBROADCASTSS ·expKernelConsts+36(SB), Y5
	VADDPS Y5, Y4, Y4                         // … + P5
	VMULPS Y3, Y4, Y4                         // p*r
	VMULPS Y3, Y4, Y4                         // (p*r)*r
	VADDPS Y3, Y4, Y4                         // + r
	VBROADCASTSS ·expKernelConsts+40(SB), Y6  // 1.0 (bits double as exponent bias)
	VADDPS Y6, Y4, Y4                         // + 1

	// 2^n in two exact factors: ni truncated (n is integral), then
	// half = trunc(ni/2) = (ni + (ni>>>31)) >> 1, rest = ni - half.
	VCVTTPS2DQ Y2, Y2
	VPSRLD $31, Y2, Y5
	VPADDD Y5, Y2, Y5
	VPSRAD $1, Y5, Y5
	VPSUBD Y5, Y2, Y2
	VPSLLD $23, Y5, Y5
	VPADDD Y6, Y5, Y5                         // bits(2^half)
	VPSLLD $23, Y2, Y2
	VPADDD Y6, Y2, Y2                         // bits(2^rest)
	VMULPS Y5, Y4, Y4
	VMULPS Y2, Y4, Y4

	// Range overrides, Expf's switch order with NaN winning.
	VBROADCASTSS ·expKernelConsts+52(SB), Y5  // +Inf
	VXORPS Y6, Y6, Y6
	VBLENDVPS Y9, Y5, Y4, Y4
	VBLENDVPS Y10, Y6, Y4, Y4
	VBLENDVPS Y8, Y0, Y4, Y4

	VMOVUPS Y4, (DI)(AX*4)

	// Lane sums: low then high quad, preserving expIntoGo's order.
	VCVTPS2PD X4, Y5
	VADDPD Y5, Y11, Y11
	VEXTRACTF128 $1, Y4, X5
	VCVTPS2PD X5, Y5
	VADDPD Y5, Y11, Y11
	MOVQ DX, AX
	JMP  exploop8

exptail4:
	// One 4-wide pass when ≥4 elements remain (same code at XMM
	// width; the X registers alias the Y constants loaded above).
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JA   expdone
	VMOVUPS (SI)(AX*4), X0
	VSUBPS X15, X0, X0

	VCMPPS $3, X0, X0, X8
	VBROADCASTSS ·expKernelConsts+48(SB), X5
	VBROADCASTSS ·expKernelConsts+44(SB), X6
	VCMPPS $0x1E, X5, X0, X9
	VCMPPS $0x11, X6, X0, X10
	VMINPS X5, X0, X1
	VMAXPS X6, X1, X1

	VMULPS X7, X1, X2
	VADDPS X12, X2, X2
	VSUBPS X12, X2, X2

	VMULPS X13, X2, X3
	VSUBPS X3, X1, X3
	VMULPS X14, X2, X4
	VSUBPS X4, X3, X3

	VBROADCASTSS ·expKernelConsts+16(SB), X4
	VMULPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+20(SB), X5
	VADDPS X5, X4, X4
	VMULPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+24(SB), X5
	VADDPS X5, X4, X4
	VMULPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+28(SB), X5
	VADDPS X5, X4, X4
	VMULPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+32(SB), X5
	VADDPS X5, X4, X4
	VMULPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+36(SB), X5
	VADDPS X5, X4, X4
	VMULPS X3, X4, X4
	VMULPS X3, X4, X4
	VADDPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+40(SB), X6
	VADDPS X6, X4, X4

	VCVTTPS2DQ X2, X2
	VPSRLD $31, X2, X5
	VPADDD X5, X2, X5
	VPSRAD $1, X5, X5
	VPSUBD X5, X2, X2
	VPSLLD $23, X5, X5
	VPADDD X6, X5, X5
	VPSLLD $23, X2, X2
	VPADDD X6, X2, X2
	VMULPS X5, X4, X4
	VMULPS X2, X4, X4

	VBROADCASTSS ·expKernelConsts+52(SB), X5
	VXORPS X6, X6, X6
	VBLENDVPS X9, X5, X4, X4
	VBLENDVPS X10, X6, X4, X4
	VBLENDVPS X8, X0, X4, X4

	VMOVUPS X4, (DI)(AX*4)
	VCVTPS2PD X4, Y5
	VADDPD Y5, Y11, Y11
	MOVQ DX, AX

expdone:
	VMOVUPD Y11, (BX)
	MOVQ AX, ret+64(FP)
	VZEROUPPER
	RET

// func expKernelConstsRef() *[14]float32
//
// Test accessor: returns the address of the RODATA constant table so
// TestExpConstantsMatchAsm can pin each slot against its exp.go twin.
TEXT ·expKernelConstsRef(SB), NOSPLIT, $0-8
	LEAQ ·expKernelConsts(SB), AX
	MOVQ AX, ret+0(FP)
	RET
