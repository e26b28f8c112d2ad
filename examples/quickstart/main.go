// Quickstart: build a knowledge database, answer a question with the
// baseline and MnnFast engines, and compare their outputs and work.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mnnfast"
	"mnnfast/internal/tensor"
)

func main() {
	const (
		ns = 100000 // story sentences in the database
		ed = 48     // embedding dimension (paper Table 1, CPU)
	)
	rng := rand.New(rand.NewSource(42))

	// A synthetic pre-embedded database: in production these matrices
	// come from embedding real story sentences (see examples/training).
	mem, err := mnnfast.NewMemory(
		tensor.GaussianMatrix(rng, ns, ed, 0.5),
		tensor.GaussianMatrix(rng, ns, ed, 0.5),
	)
	if err != nil {
		log.Fatal(err)
	}
	u := tensor.RandomVector(rng, ed, 1) // an embedded question

	baseline := mnnfast.NewBaseline(mem, mnnfast.Options{})
	fast := mnnfast.NewColumn(mem, mnnfast.Options{
		ChunkSize:     1000,
		Streaming:     true,
		SkipThreshold: 0.1,
	})

	oBase := tensor.NewVector(ed)
	oFast := tensor.NewVector(ed)
	stBase := baseline.Infer(u, oBase)
	stFast := fast.Infer(u, oFast)

	fmt.Printf("database: %d sentences × %d dims (%.1f MB per memory)\n",
		ns, ed, float64(mem.In.SizeBytes())/(1<<20))
	fmt.Printf("%-10s divisions=%-8d exps=%-8d wsum-muls=%-10d spill=%dB\n",
		baseline.Name(), stBase.Divisions, stBase.Exps, stBase.WeightedSumMuls, stBase.SpillBytes)
	fmt.Printf("%-10s divisions=%-8d exps=%-8d wsum-muls=%-10d spill=%dB (skipped %.1f%% of rows)\n",
		fast.Name(), stFast.Divisions, stFast.Exps, stFast.WeightedSumMuls, stFast.SpillBytes,
		100*stFast.SkipFraction())
	fmt.Printf("output divergence (zero-skipping drops near-zero mass): %.3g\n",
		tensor.MaxAbsDiff(oBase, oFast))

	// An exact column run reproduces the baseline bit-for-bit shape.
	exact := mnnfast.NewColumn(mem, mnnfast.Options{ChunkSize: 1000})
	oExact := tensor.NewVector(ed)
	exact.Infer(u, oExact)
	fmt.Printf("exact column vs baseline: max |Δ| = %.3g\n", tensor.MaxAbsDiff(oBase, oExact))
}
