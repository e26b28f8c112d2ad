package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Tier conformance tests: every registered kernel tier — including the
// assembly tiers contributed by archTiers — is pinned against the
// scalar reference twins at every length 0..256 and at deliberately
// misaligned offsets, and the two fast tiers (go, avx2) are held to
// the bit-identity contract documented in dispatch.go.

// tierOffsets exercises aligned and misaligned views: the arena aligns
// backing to 32 bytes, but callers routinely slice matrix rows and
// chunk views at arbitrary element offsets.
var tierOffsets = []int{0, 1, 3, 5}

// offsetVector returns a length-n vector whose first element sits
// off*4 bytes past a 32-byte boundary, filled from src.
func offsetVector(src Vector, off int) Vector {
	buf := alignedFloats(len(src) + off)
	v := Vector(buf[off : off+len(src)])
	copy(v, src)
	return v
}

// bitsEqual reports float32 bit equality, treating every NaN as equal
// to every other NaN: hardware min/max/mul NaN propagation may differ
// in payload between scalar and vector instructions, and the contract
// is "NaN in, NaN out", not a specific payload.
func bitsEqual(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

func TestKernelTiersMatchScalarTwins(t *testing.T) {
	for _, tier := range KernelTiers() {
		tab := kernelTiers[tier]
		t.Run(tier, func(t *testing.T) {
			r := rand.New(rand.NewSource(90))
			for n := 0; n <= 256; n++ {
				for _, off := range tierOffsets {
					a := offsetVector(RandomVector(r, n, 1), off)
					b := offsetVector(RandomVector(r, n, 1), off)

					got, want := tab.dot(a, b), DotScalar(a, b)
					if absf(got-want) > 1e-3*(1+absf(want)) {
						t.Fatalf("dot n=%d off=%d: got %v want %v", n, off, got, want)
					}

					const alpha = -1.25
					y, yRef := b.Clone(), b.Clone()
					tab.axpy(alpha, a, y)
					AxpyScalar(alpha, a, yRef)
					for i := range y {
						if !bitsEqual(y[i], yRef[i]) {
							t.Fatalf("axpy n=%d off=%d i=%d: got %v want %v", n, off, i, y[i], yRef[i])
						}
					}

					v, vRef := a.Clone(), a.Clone()
					tab.scale(v, alpha)
					ScaleScalar(vRef, alpha)
					for i := range v {
						if !bitsEqual(v[i], vRef[i]) {
							t.Fatalf("scale n=%d off=%d i=%d: got %v want %v", n, off, i, v[i], vRef[i])
						}
					}

					v, vRef = a.Clone(), a.Clone()
					tab.add(v, b)
					AddScalar(vRef, b)
					for i := range v {
						if !bitsEqual(v[i], vRef[i]) {
							t.Fatalf("add n=%d off=%d i=%d: got %v want %v", n, off, i, v[i], vRef[i])
						}
					}

					dst := offsetVector(NewVector(n), off)
					dstRef := NewVector(n)
					sum := tab.expInto(dst, a, 0.25)
					sumRef := ExpIntoScalar(dstRef, a, 0.25)
					for i := range dst {
						if absf(dst[i]-dstRef[i]) > 1e-6*(1+absf(dstRef[i])) {
							t.Fatalf("expInto n=%d off=%d i=%d: got %v want %v", n, off, i, dst[i], dstRef[i])
						}
					}
					if absf(sum-sumRef) > 1e-6*(1+absf(sumRef)) {
						t.Fatalf("expInto sum n=%d off=%d: got %v want %v", n, off, sum, sumRef)
					}
				}
			}
		})
	}
}

// expEdgeInputs covers every special-case branch of Expf: NaN and
// infinity propagation, both clamp boundaries and their neighborhoods,
// the odd-n path of the two-step 2ⁿ scaling, and zero.
var expEdgeInputs = Vector{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, 1, -1, 0.5, -0.5,
	expHi, expHi + 1e-3, expHi - 1e-3, 200, 1000,
	expLo, expLo + 1e-3, expLo - 1e-3, -200, -1000,
	88.4, -87.0, 42.1234, -63.5, 1e-30, -1e-30,
}

// TestFastTiersBitIdentical pins the cross-tier determinism contract:
// Scale, AddInPlace, Axpy, and ExpInto produce bit-identical results on
// the go and avx2 tiers (elements and returned sums), including NaN,
// infinity, and clamp-boundary inputs. Dot is exempt (documented
// reassociation difference) and covered by the twin test above.
func TestFastTiersBitIdentical(t *testing.T) {
	avx2, ok := kernelTiers[TierAVX2]
	if !ok {
		t.Skip("avx2 tier not available on this host")
	}
	goTier := kernelTiers[TierGo]

	r := rand.New(rand.NewSource(91))
	for n := 0; n <= 256; n++ {
		for _, off := range tierOffsets {
			a := offsetVector(RandomVector(r, n, 4), off)
			b := offsetVector(RandomVector(r, n, 4), off)
			// Splice exp edge cases into the body of the vector so they
			// land in both the 8-wide loop and the tails.
			for i := range a {
				if i%7 == 3 {
					a[i] = expEdgeInputs[i%len(expEdgeInputs)]
				}
			}

			for _, alpha := range []float32{0, 1, -2.5, float32(math.NaN()), float32(math.Inf(1))} {
				y1, y2 := b.Clone(), b.Clone()
				avx2.axpy(alpha, a, y1)
				goTier.axpy(alpha, a, y2)
				for i := range y1 {
					if !bitsEqual(y1[i], y2[i]) {
						t.Fatalf("axpy a=%v n=%d off=%d i=%d: avx2 %x go %x",
							alpha, n, off, i, math.Float32bits(y1[i]), math.Float32bits(y2[i]))
					}
				}

				v1, v2 := a.Clone(), a.Clone()
				avx2.scale(v1, alpha)
				goTier.scale(v2, alpha)
				for i := range v1 {
					if !bitsEqual(v1[i], v2[i]) {
						t.Fatalf("scale a=%v n=%d off=%d i=%d: avx2 %x go %x",
							alpha, n, off, i, math.Float32bits(v1[i]), math.Float32bits(v2[i]))
					}
				}
			}

			v1, v2 := a.Clone(), a.Clone()
			avx2.add(v1, b)
			goTier.add(v2, b)
			for i := range v1 {
				if !bitsEqual(v1[i], v2[i]) {
					t.Fatalf("add n=%d off=%d i=%d: avx2 %x go %x",
						n, off, i, math.Float32bits(v1[i]), math.Float32bits(v2[i]))
				}
			}

			for _, shift := range []float32{0, 0.25, -3, 80} {
				d1 := offsetVector(NewVector(n), off)
				d2 := NewVector(n)
				s1 := avx2.expInto(d1, a, shift)
				s2 := goTier.expInto(d2, a, shift)
				for i := range d1 {
					if !bitsEqual(d1[i], d2[i]) {
						t.Fatalf("expInto shift=%v n=%d off=%d i=%d src=%v: avx2 %x go %x",
							shift, n, off, i, a[i], math.Float32bits(d1[i]), math.Float32bits(d2[i]))
					}
				}
				if !bitsEqual(s1, s2) {
					t.Fatalf("expInto sum shift=%v n=%d off=%d: avx2 %x go %x",
						shift, n, off, math.Float32bits(s1), math.Float32bits(s2))
				}
			}
		}
	}
}

// checkRowKernels pins one tier's multi-row kernels against the per-row
// sweeps they replace, bit for bit: dotRows against a loop of the
// tier's dot, axpyRows against the ascending sweep of the tier's axpy
// with the w[i] < cut bypass. block holds len(w) rows of len(x)
// columns; every operand is re-based off elements past a 32-byte
// boundary.
func checkRowKernels(t *testing.T, tier string, block, x, w, acc Vector, cut float32, off int) {
	t.Helper()
	tab := kernelTiers[tier]
	rows, cols := len(w), len(x)
	block, x, w = offsetVector(block, off), offsetVector(x, off), offsetVector(w, off)

	y := offsetVector(NewVector(rows), off)
	tab.dotRows(block, x, y)
	for i := range y {
		if want := tab.dot(block[i*cols:(i+1)*cols], x); !bitsEqual(y[i], want) {
			t.Errorf("tier %s: dotRows(rows=%d cols=%d off=%d)[%d] = %x, dot %x",
				tier, rows, cols, off, i, math.Float32bits(y[i]), math.Float32bits(want))
		}
	}

	got, want := offsetVector(acc, off), acc.Clone()
	skipped, wantSkipped := tab.axpyRows(w, block, cut, got), 0
	for i, a := range w {
		if a < cut {
			wantSkipped++
			continue
		}
		tab.axpy(a, block[i*cols:(i+1)*cols], want)
	}
	if skipped != wantSkipped {
		t.Errorf("tier %s: axpyRows(rows=%d cols=%d off=%d cut=%v) skipped %d rows, sweep %d",
			tier, rows, cols, off, cut, skipped, wantSkipped)
	}
	for j := range got {
		if !bitsEqual(got[j], want[j]) {
			t.Errorf("tier %s: axpyRows(rows=%d cols=%d off=%d cut=%v)[%d] = %x, sweep %x",
				tier, rows, cols, off, cut, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
	}
}

// TestRowKernelsMatchPerRowSweeps is the conformance test of DotRows
// and AxpyRows: per tier, every block shape from empty through two
// column tiles and every row-count residue of the 4-row blocking is
// bit-identical to the per-row Dot loop and Axpy sweep, including
// NaN, infinite, denormal, zero and negative weights on either side of
// the cut.
func TestRowKernelsMatchPerRowSweeps(t *testing.T) {
	specials := Vector{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		1e-42, -1e-42, 0.5, -0.5, 3e38,
	}
	for _, tier := range KernelTiers() {
		r := rand.New(rand.NewSource(95))
		for _, cols := range []int{0, 1, 3, 7, 8, 9, 16, 20, 24, 31, 32, 33, 40, 64, 67} {
			for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13} {
				block := RandomVector(r, rows*cols, 1)
				x, acc := RandomVector(r, cols, 1), RandomVector(r, cols, 1)
				w := RandomVector(r, rows, 1)
				for i := range w {
					w[i] = absf(w[i])
					if i%3 == 1 {
						w[i] = specials[(i+rows+cols)%len(specials)]
					}
					if w[i] == 0 && cols > 0 {
						// Only Axpy's a == 0 fast-out keeps 0·Inf = NaN
						// out of the accumulator.
						block[i*cols+(i%cols)] = float32(math.Inf(1))
					}
				}
				for _, cut := range []float32{0, 0.4, float32(math.Inf(-1)), float32(math.NaN())} {
					checkRowKernels(t, tier, block, x, w, acc, cut, tierOffsets[(rows+cols)%len(tierOffsets)])
				}
			}
		}
	}
}

func TestSetKernelTier(t *testing.T) {
	defer func() {
		if err := SetKernelTier("auto"); err != nil {
			t.Fatal(err)
		}
	}()

	a := Vector{1, 2, 3, 4, 5}
	b := Vector{5, 4, 3, 2, 1}
	for _, tier := range KernelTiers() {
		if err := SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%q): %v", tier, err)
		}
		if got := KernelTier(); got != tier {
			t.Fatalf("KernelTier() = %q after SetKernelTier(%q)", got, tier)
		}
		if got, want := Dot(a, b), DotScalar(a, b); absf(got-want) > 1e-5 {
			t.Fatalf("tier %q: Dot = %v, want %v", tier, got, want)
		}
	}

	if err := SetKernelTier("no-such-tier"); err == nil {
		t.Fatal("SetKernelTier accepted an unknown tier")
	} else if !strings.Contains(err.Error(), "no-such-tier") {
		t.Fatalf("unhelpful error: %v", err)
	}

	if err := SetKernelTier("auto"); err != nil {
		t.Fatal(err)
	}
	want := TierGo
	if _, ok := kernelTiers[TierAVX2]; ok {
		want = TierAVX2
	}
	if got := KernelTier(); got != want {
		t.Fatalf("auto resolved to %q, want %q", got, want)
	}
}

func TestKernelTiersListsScalarAndGo(t *testing.T) {
	names := KernelTiers()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	if !have[TierScalar] || !have[TierGo] {
		t.Fatalf("KernelTiers() = %v, want at least scalar and go", names)
	}
}

// decodeFuzzVector turns raw fuzz bytes into a float32 vector (up to
// 256 elements, raw bits — NaN, infinities, and denormals included)
// placed off elements past a 32-byte boundary.
func decodeFuzzVector(raw []byte, off int) Vector {
	n := len(raw) / 4
	if n > 256 {
		n = 256
	}
	v := offsetVector(NewVector(n), off)
	for i := 0; i < n; i++ {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return v
}

// diffKernelTiers is the differential body shared by FuzzKernelTiers:
// it runs every registered tier on the same inputs and cross-checks
// Dot, Axpy, and ExpInto against the scalar twins (tolerance where
// reassociation is allowed) and the go tier (bit-identity where the
// contract demands it), and DotRows and AxpyRows against the tier's own
// per-row sweeps (checkRowKernels). For the row kernels b is cut into
// rows of 1 + (offRaw/8 + n) mod 48 columns, a supplies the weights as
// raw bits (the query and the accumulator are its tamed prefix), and
// alpha is the skip cut.
func diffKernelTiers(t *testing.T, aRaw, bRaw []byte, alpha float32, offRaw uint8) {
	off := int(offRaw) % 8
	a := decodeFuzzVector(aRaw, off)
	b := decodeFuzzVector(bRaw, off)
	if len(b) > len(a) {
		b = b[:len(a)]
	}
	if len(a) > len(b) {
		a = a[:len(b)]
	}
	n := len(a)
	goTier := kernelTiers[TierGo]

	// Dot needs tame values: with raw magnitudes the reassociated sums
	// can diverge without bound (catastrophic cancellation), which is
	// exactly what the documented tolerance excludes.
	aDot, bDot := clean(a), clean(b)
	var sumAbs float64
	for i := range aDot {
		sumAbs += math.Abs(float64(aDot[i]) * float64(bDot[i]))
	}
	cols := 1 + (int(offRaw>>3)+n)%48
	rows := n / cols
	for _, tier := range KernelTiers() {
		tab := kernelTiers[tier]

		if rows == 0 {
			checkRowKernels(t, tier, nil, nil, nil, nil, alpha, off)
		} else {
			checkRowKernels(t, tier, b[:rows*cols], aDot[:cols], a[:rows], aDot[n-cols:], alpha, off)
		}

		got, want := tab.dot(aDot, bDot), DotScalar(aDot, bDot)
		if math.Abs(float64(got-want)) > 1e-4*(1+sumAbs) {
			t.Errorf("tier %s: dot(n=%d) = %v, scalar %v", tier, n, got, want)
		}

		if alpha == alpha { // NaN alpha exercised by TestFastTiersBitIdentical
			y, yRef := b.Clone(), b.Clone()
			tab.axpy(alpha, a, y)
			AxpyScalar(alpha, a, yRef)
			for i := range y {
				if !bitsEqual(y[i], yRef[i]) {
					t.Errorf("tier %s: axpy(n=%d)[%d] = %v, scalar %v", tier, n, i, y[i], yRef[i])
				}
			}
		}

		dst := offsetVector(NewVector(n), off)
		dstRef := NewVector(n)
		sum := tab.expInto(dst, a, 0)
		sumRef := ExpIntoScalar(dstRef, a, 0)
		sawSpecial := false
		for i := range dst {
			gotE, wantE := dst[i], dstRef[i]
			if wantE != wantE || math.IsInf(float64(wantE), 0) || wantE > 1e37 {
				// NaN, overflow, and near-overflow elements: float32 fast-exp
				// and float64 math.Exp legitimately disagree on which side of
				// saturation they land; the go↔avx2 bit-identity check below
				// still pins these exactly.
				sawSpecial = true
				if wantE != wantE && gotE == gotE {
					t.Errorf("tier %s: expInto(n=%d)[%d] = %v for NaN input", tier, n, i, gotE)
				}
				continue
			}
			if absf(gotE-wantE) > 1e-6*(1+absf(wantE)) {
				t.Errorf("tier %s: expInto(n=%d)[%d] = %v, scalar %v (src %v)", tier, n, i, gotE, wantE, a[i])
			}
		}
		if !sawSpecial && absf(sum-sumRef) > 1e-6*(1+absf(sumRef)) {
			t.Errorf("tier %s: expInto sum(n=%d) = %v, scalar %v", tier, n, sum, sumRef)
		}

		// Fast tiers must agree with the go tier to the bit, raw inputs
		// included.
		if tier != TierScalar && tier != TierGo {
			dstGo := NewVector(n)
			sumGo := goTier.expInto(dstGo, a, 0)
			for i := range dst {
				if !bitsEqual(dst[i], dstGo[i]) {
					t.Errorf("tier %s: expInto(n=%d)[%d] = %x, go tier %x (src %v)",
						tier, n, i, math.Float32bits(dst[i]), math.Float32bits(dstGo[i]), a[i])
				}
			}
			if !bitsEqual(sum, sumGo) {
				t.Errorf("tier %s: expInto sum(n=%d) = %x, go tier %x",
					tier, n, math.Float32bits(sum), math.Float32bits(sumGo))
			}
		}
	}
}

// FuzzKernelTiers differentially fuzzes every registered kernel tier
// (avx2 vs unrolled go vs scalar) over raw float bit patterns, lengths
// 0..256, and misaligned base offsets. Seed corpus lives in
// testdata/fuzz/FuzzKernelTiers.
func FuzzKernelTiers(f *testing.F) {
	f.Fuzz(diffKernelTiers)
}

// benchSink defeats dead-code elimination of pure benchmark bodies.
var benchSink float32

func BenchmarkDotTiers(b *testing.B) {
	r := rand.New(rand.NewSource(92))
	x := RandomVector(r, 128, 1)
	y := RandomVector(r, 128, 1)
	for _, tier := range KernelTiers() {
		dot := kernelTiers[tier].dot
		b.Run(tier, func(b *testing.B) {
			b.SetBytes(128 * 4 * 2)
			var s float32
			for i := 0; i < b.N; i++ {
				s += dot(x, y)
			}
			benchSink = s
		})
	}
}

func BenchmarkExpIntoTiers(b *testing.B) {
	r := rand.New(rand.NewSource(93))
	src := RandomVector(r, 128, 1)
	dst := NewVector(128)
	for _, tier := range KernelTiers() {
		expInto := kernelTiers[tier].expInto
		b.Run(tier, func(b *testing.B) {
			b.SetBytes(128 * 4)
			var s float32
			for i := 0; i < b.N; i++ {
				s += expInto(dst, src, 0.25)
			}
			benchSink = s
		})
	}
}

func BenchmarkAxpyTiers(b *testing.B) {
	r := rand.New(rand.NewSource(94))
	x := RandomVector(r, 128, 1)
	y := RandomVector(r, 128, 1)
	for _, tier := range KernelTiers() {
		axpy := kernelTiers[tier].axpy
		b.Run(tier, func(b *testing.B) {
			b.SetBytes(128 * 4 * 2)
			for i := 0; i < b.N; i++ {
				axpy(0.5, x, y)
			}
		})
	}
}
