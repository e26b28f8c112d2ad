package tensor

import (
	"fmt"
	"sort"
)

// Kernel dispatch.
//
// The hot inner loops — Dot, Axpy, Scale, AddInPlace, ExpInto, and the
// multi-row block kernels DotRows and AxpyRows — exist in up to three
// tiers:
//
//	scalar  one-loop reference twins (kernels_scalar.go); float64
//	        math.Exp for the exponential. Ground truth, never fast.
//	go      portable 4-way-unrolled Go kernels with the float32
//	        fast-exp (tensor.go, exp.go). Always available.
//	avx2    amd64 assembly, 8 lanes per instruction, selected only
//	        when CPUID reports AVX2 and the OS has enabled YMM state
//	        (kernels_amd64.s, cpu_amd64.go).
//
// The active tier is resolved exactly once, in init(), into
// package-level function pointers: the hot path pays one indirect call
// and no per-call feature branch. SetKernelTier swaps the table for
// tests and benchmarks; it is not safe to call concurrently with
// inference and is meant for process startup or sequential test code.
//
// Determinism contract (see DESIGN.md §11): every tier is internally
// deterministic — same input, same tier, same bits — and each fast
// kernel is pinned against its scalar twin by the property tests and
// the FuzzKernelTiers differential fuzz target. The avx2 tier performs
// no FMA contraction (separate VMULPS/VADDPS), so per-multiply rounding
// matches the Go kernels; Scale, AddInPlace, Axpy, and ExpInto are
// bit-identical between the go and avx2 tiers, while Dot may differ
// within the documented reassociation tolerance (8 lanes instead of 4).
// Within a tier, DotRows is bit-identical to a loop of that tier's Dot
// and AxpyRows to the ascending sweep of that tier's Axpy.

// Tier names, in increasing speed order.
const (
	TierScalar = "scalar"
	TierGo     = "go"
	TierAVX2   = "avx2"
)

// kernelTable is one tier's implementation set. Lengths are validated
// by the exported wrappers before these are called; implementations may
// assume matching lengths (the scalar twins re-check and that is fine).
type kernelTable struct {
	dot      func(a, b Vector) float32
	axpy     func(a float32, x, y Vector)
	scale    func(v Vector, a float32)
	add      func(v, w Vector)
	expInto  func(dst, src Vector, shift float32) float32
	dotRows  func(rows []float32, x, y Vector)
	axpyRows func(w Vector, rows []float32, cut float32, acc Vector) int
}

// kernelTiers holds every tier available on this build/host.
// archTiers (dispatch_amd64.go / dispatch_generic.go) contributes the
// assembly tiers; scalar and go are always present.
var kernelTiers = buildKernelTiers()

func buildKernelTiers() map[string]kernelTable {
	tiers := map[string]kernelTable{
		TierScalar: {
			dot:      DotScalar,
			axpy:     AxpyScalar,
			scale:    ScaleScalar,
			add:      AddScalar,
			expInto:  ExpIntoScalar,
			dotRows:  DotRowsScalar,
			axpyRows: AxpyRowsScalar,
		},
		TierGo: {
			dot:      dotGo,
			axpy:     axpyGo,
			scale:    scaleGo,
			add:      addGo,
			expInto:  expIntoGo,
			dotRows:  dotRowsGo,
			axpyRows: axpyRowsGo,
		},
	}
	for name, tab := range archTiers() {
		tiers[name] = tab
	}
	return tiers
}

// The active table: package-level function pointers resolved in init().
// Reads on the hot path are plain loads; SetKernelTier is startup/test
// only (see package comment above).
var (
	activeTier   string
	dotImpl      func(a, b Vector) float32
	axpyImpl     func(a float32, x, y Vector)
	scaleImpl    func(v Vector, a float32)
	addImpl      func(v, w Vector)
	expIntoImpl  func(dst, src Vector, shift float32) float32
	dotRowsImpl  func(rows []float32, x, y Vector)
	axpyRowsImpl func(w Vector, rows []float32, cut float32, acc Vector) int
)

func init() {
	tier := TierGo
	if _, ok := kernelTiers[TierAVX2]; ok {
		tier = TierAVX2
	}
	if err := SetKernelTier(tier); err != nil {
		panic(err)
	}
}

// KernelTier returns the name of the active kernel tier.
func KernelTier() string { return activeTier }

// KernelTiers returns the names of every tier available on this
// build/host, sorted alphabetically.
func KernelTiers() []string {
	names := make([]string, 0, len(kernelTiers))
	for name := range kernelTiers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SetKernelTier selects the active kernel tier by name ("auto" resolves
// to the fastest available). It returns an error for a tier that is
// unknown or unavailable on this host. Not safe to call concurrently
// with inference: call it at process startup (flag handling) or from
// sequential test code.
func SetKernelTier(name string) error {
	if name == "auto" {
		name = TierGo
		if _, ok := kernelTiers[TierAVX2]; ok {
			name = TierAVX2
		}
	}
	tab, ok := kernelTiers[name]
	if !ok {
		return fmt.Errorf("tensor: unknown kernel tier %q (available: %v)", name, KernelTiers())
	}
	activeTier = name
	dotImpl = tab.dot
	axpyImpl = tab.axpy
	scaleImpl = tab.scale
	addImpl = tab.add
	expIntoImpl = tab.expInto
	dotRowsImpl = tab.dotRows
	axpyRowsImpl = tab.axpyRows
	return nil
}
