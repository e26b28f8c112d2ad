package core

import (
	"math/rand"
	"testing"

	"mnnfast/internal/tensor"
)

// perfMemory builds the single-query benchmark database (ns=10k,
// ed=128).
func perfMemory(tb testing.TB, ns, ed int) *Memory {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	in := tensor.GaussianMatrix(rng, ns, ed, 0.5)
	out := tensor.GaussianMatrix(rng, ns, ed, 0.5)
	mem, err := NewMemory(in, out)
	if err != nil {
		tb.Fatal(err)
	}
	return mem
}

func benchSingleQuery(b *testing.B, mk func(*Memory) Engine) {
	const ns, ed = 10000, 128
	mem := perfMemory(b, ns, ed)
	eng := mk(mem)
	rng := rand.New(rand.NewSource(12))
	u := tensor.RandomVector(rng, ed, 1)
	o := tensor.NewVector(ed)
	eng.Infer(u, o) // warm-up
	b.SetBytes(mem.In.SizeBytes() + mem.Out.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Infer(u, o)
	}
}

// BenchmarkColumnSingle10kx128 is the exact column engine.
func BenchmarkColumnSingle10kx128(b *testing.B) {
	benchSingleQuery(b, func(m *Memory) Engine {
		return NewColumn(m, Options{ChunkSize: 1000})
	})
}

// BenchmarkBaselineSingle10kx128 is the layer-by-layer reference point.
func BenchmarkBaselineSingle10kx128(b *testing.B) {
	benchSingleQuery(b, func(m *Memory) Engine {
		return NewBaseline(m, Options{})
	})
}

// BenchmarkMnnFastSingle10kx128 is the full MnnFast configuration
// (column + streaming + zero-skipping).
func BenchmarkMnnFastSingle10kx128(b *testing.B) {
	benchSingleQuery(b, func(m *Memory) Engine {
		return NewColumn(m, Options{ChunkSize: 1000, Streaming: true, SkipThreshold: 0.1})
	})
}
