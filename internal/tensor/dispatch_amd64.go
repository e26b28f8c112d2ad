//go:build amd64

package tensor

// archTiers contributes the avx2 tier when the CPUID probe reports a
// usable AVX2 host (cpu_amd64.go). On older amd64 hardware — or with
// GODEBUG=cpu.avx2=off — the map is empty and dispatch falls back to
// the portable go tier, behavior unchanged from a non-amd64 build.
func archTiers() map[string]kernelTable {
	if !cpuSupportsAVX2() {
		return nil
	}
	return map[string]kernelTable{
		TierAVX2: {
			dot:      dotAVX2,
			axpy:     axpyAVX2Tier,
			scale:    scaleAVX2,
			add:      addAVX2,
			expInto:  expIntoAVX2Tier,
			dotRows:  dotRowsAVX2,
			axpyRows: axpyRowsAVX2,
		},
	}
}
