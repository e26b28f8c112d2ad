// Benchmarks reproducing the MnnFast paper's evaluation artifacts.
//
// There is one benchmark per table/figure (BenchmarkFig3 … BenchmarkFig14,
// BenchmarkTable1, BenchmarkEnergy) — each runs the corresponding
// experiment from internal/experiments and reports its headline number
// as a custom metric — plus real wall-clock engine benchmarks
// (BenchmarkInfer*) and ablation benchmarks for the design choices
// DESIGN.md calls out (chunk size, skip threshold, sparse compaction).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package mnnfast_test

import (
	"math/rand"
	"testing"

	"mnnfast"
	"mnnfast/internal/core"
	"mnnfast/internal/experiments"
	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
)

// benchDB caches one database across engine benchmarks.
var benchDB *core.Memory

func benchMemory(b *testing.B, ns, ed int) *core.Memory {
	b.Helper()
	if benchDB == nil || benchDB.NS() != ns || benchDB.Dim() != ed {
		rng := rand.New(rand.NewSource(1))
		in := tensor.GaussianMatrix(rng, ns, ed, 0.5)
		out := tensor.GaussianMatrix(rng, ns, ed, 0.5)
		for i := range in.Data {
			in.Data[i] *= 4 // trained-model attention sharpness
		}
		mem, err := core.NewMemory(in, out)
		if err != nil {
			b.Fatal(err)
		}
		benchDB = mem
	}
	return benchDB
}

func benchEngine(b *testing.B, mk func(*core.Memory) core.Engine) {
	b.Helper()
	const ns, ed = 1 << 16, 48
	mem := benchMemory(b, ns, ed)
	eng := mk(mem)
	rng := rand.New(rand.NewSource(2))
	u := tensor.RandomVector(rng, ed, 1)
	o := tensor.NewVector(ed)
	eng.Infer(u, o) // warm-up
	b.SetBytes(mem.In.SizeBytes() + mem.Out.SizeBytes())
	b.ResetTimer()
	var st core.Stats
	for i := 0; i < b.N; i++ {
		st = eng.Infer(u, o)
	}
	b.ReportMetric(st.SkipFraction()*100, "%rows-skipped")
}

func BenchmarkInferBaseline(b *testing.B) {
	benchEngine(b, func(m *core.Memory) core.Engine {
		return core.NewBaseline(m, core.Options{})
	})
}

func BenchmarkInferColumn(b *testing.B) {
	benchEngine(b, func(m *core.Memory) core.Engine {
		return core.NewColumn(m, core.Options{ChunkSize: 1000})
	})
}

func BenchmarkInferColumnStream(b *testing.B) {
	benchEngine(b, func(m *core.Memory) core.Engine {
		return core.NewColumn(m, core.Options{ChunkSize: 1000, Streaming: true})
	})
}

func BenchmarkInferMnnFast(b *testing.B) {
	benchEngine(b, func(m *core.Memory) core.Engine {
		return core.NewColumn(m, core.Options{ChunkSize: 1000, Streaming: true, SkipThreshold: 0.1})
	})
}

// Ablation: column-engine chunk size (DESIGN.md design-choice bench).
// Too-small chunks pay loop overhead; too-large chunks overflow the
// cache-resident scratch.
func BenchmarkChunkSize(b *testing.B) {
	for _, chunk := range []int{64, 256, 1000, 4096, 16384} {
		b.Run(itoa(chunk), func(b *testing.B) {
			benchEngine(b, func(m *core.Memory) core.Engine {
				return core.NewColumn(m, core.Options{ChunkSize: chunk})
			})
		})
	}
}

// Ablation: zero-skipping threshold sweep on the sharpened database.
func BenchmarkSkipThreshold(b *testing.B) {
	for _, th := range []float32{0, 0.01, 0.1, 0.5} {
		b.Run(ftoa(th), func(b *testing.B) {
			benchEngine(b, func(m *core.Memory) core.Engine {
				return core.NewColumn(m, core.Options{ChunkSize: 1000, SkipThreshold: th})
			})
		})
	}
}

// Ablation: the paper's GPU §4.1.2 argument — matrix compaction costs
// as much as the weighted sum it accelerates, while MnnFast's inline
// zero-skipping pays nothing up front.
func BenchmarkSparseCompaction(b *testing.B) {
	const ns, ed = 1 << 15, 48
	rng := rand.New(rand.NewSource(3))
	out := tensor.RandomMatrix(rng, ns, ed, 1)
	weights := tensor.NewVector(ns)
	for i := range weights {
		if rng.Float64() < 0.02 {
			weights[i] = rng.Float32()*0.5 + 0.2
		} else {
			weights[i] = rng.Float32() * 0.001
		}
	}
	o := tensor.NewVector(ed)

	b.Run("compact-then-sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, _ := sparse.Compact(weights, out, 0.1)
			c.WeightedSum(o)
		}
	})
	b.Run("direct-skip-sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.DirectSkipSum(weights, out, 0.1, o)
		}
	})
	b.Run("dense-sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.VecMat(nil, weights, out, o)
		}
	})
}

// Experiment benchmarks — one per paper table/figure. Each iteration
// regenerates the artifact at the smoke configuration; the headline
// result is attached as a custom metric.

func benchCfg() experiments.Config { return experiments.QuickConfig() }

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1()
	}
}

func BenchmarkFig3(b *testing.B) {
	var r *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3(benchCfg())
	}
	last := len(r.Threads) - 1
	b.ReportMetric(r.Speedup[len(r.Channels)-1][last], "speedup@maxT-4ch")
}

func BenchmarkFig4(b *testing.B) {
	var r *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4(benchCfg())
	}
	b.ReportMetric(r.Relative[len(r.Dims)-1][len(r.EmbThreads)-1], "rel-perf@8emb")
}

func BenchmarkFig6(b *testing.B) {
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Sparsity.MeanBelow01, "frac-p<0.1")
}

func BenchmarkFig7(b *testing.B) {
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Reduction[len(r.Reduction)-1], "reduction@0.5")
}

func BenchmarkFig9(b *testing.B) {
	var r *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9(benchCfg())
	}
	b.ReportMetric(r.AvgSpeedup[len(r.AvgSpeedup)-1], "mnnfast-avg-speedup")
}

func BenchmarkFig10(b *testing.B) {
	var r *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10(benchCfg())
	}
	c := len(r.Channels) - 1
	b.ReportMetric(r.ColumnStream[c][len(r.Threads)-1], "colS-speedup@maxT")
}

func BenchmarkFig11(b *testing.B) {
	var r *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig11(benchCfg())
	}
	b.ReportMetric(r.Normalized[2], "colS-normalized-misses")
}

func BenchmarkFig12(b *testing.B) {
	var r *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12(benchCfg())
	}
	b.ReportMetric(r.GPUSpeedup[len(r.GPUSpeedup)-1], "speedup@4gpu")
}

func BenchmarkFig13(b *testing.B) {
	var r *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig13(benchCfg())
	}
	b.ReportMetric(r.SpeedupAll, "fpga-mnnfast-speedup")
}

func BenchmarkFig14(b *testing.B) {
	var r *experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14(benchCfg())
	}
	b.ReportMetric(r.Reduction[len(r.Reduction)-1], "reduction@256KB")
}

func BenchmarkEnergy(b *testing.B) {
	var r *experiments.EnergyResult
	for i := 0; i < b.N; i++ {
		r = experiments.Energy(benchCfg())
	}
	b.ReportMetric(r.FPGAAdvantage, "fpga-energy-advantage")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func ftoa(f float32) string {
	switch f {
	case 0:
		return "off"
	case 0.01:
		return "0.01"
	case 0.1:
		return "0.1"
	case 0.5:
		return "0.5"
	}
	return "x"
}

var _ = mnnfast.ExperimentIDs // keep the facade imported

// BenchmarkBypass regenerates the §3.3 embedding-isolation ablation.
func BenchmarkBypass(b *testing.B) {
	var r *experiments.BypassResult
	for i := 0; i < b.N; i++ {
		r = experiments.Bypass(benchCfg())
	}
	b.ReportMetric(r.InfMissRate[0]-r.InfMissRate[2], "missrate-saved-by-emb$")
}

// BenchmarkDRAMRow regenerates the DRAM row-buffer ablation.
func BenchmarkDRAMRow(b *testing.B) {
	var r *experiments.DRAMRowResult
	for i := 0; i < b.N; i++ {
		r = experiments.DRAMRow(benchCfg())
	}
	b.ReportMetric(r.Efficiency[1], "column-bw-efficiency")
}
