package core_test

import (
	"fmt"
	"math/rand"

	"mnnfast/internal/core"
	"mnnfast/internal/tensor"
)

// ExampleColumn shows the MnnFast engine answering a question against a
// knowledge database and the lazy-softmax division count (ed, not ns).
func ExampleColumn() {
	rng := rand.New(rand.NewSource(1))
	const ns, ed = 10000, 32
	mem, _ := core.NewMemory(
		tensor.GaussianMatrix(rng, ns, ed, 0.5),
		tensor.GaussianMatrix(rng, ns, ed, 0.5),
	)
	eng := core.NewColumn(mem, core.Options{ChunkSize: 1000})
	u := tensor.RandomVector(rng, ed, 1)
	o := tensor.NewVector(ed)
	stats := eng.Infer(u, o)
	fmt.Println("divisions:", stats.Divisions) // ed, not ns — Equation 4
	fmt.Println("exps:", stats.Exps)
	fmt.Println("spill bytes:", stats.SpillBytes)
	// Output:
	// divisions: 32
	// exps: 10000
	// spill bytes: 0
}

// ExampleColumn_zeroSkipping shows the §3.2 optimization bypassing the
// weighted-sum work of near-zero attention rows.
func ExampleColumn_zeroSkipping() {
	rng := rand.New(rand.NewSource(3))
	const ns, ed = 5000, 16
	in := tensor.GaussianMatrix(rng, ns, ed, 0.5)
	for i := range in.Data {
		in.Data[i] *= 4 // sharp, trained-model-like attention
	}
	mem, _ := core.NewMemory(in, tensor.GaussianMatrix(rng, ns, ed, 0.5))
	u := tensor.RandomVector(rng, ed, 1)
	o := tensor.NewVector(ed)
	stats := core.NewColumn(mem, core.Options{ChunkSize: 500, SkipThreshold: 0.1}).Infer(u, o)
	fmt.Printf("skipped more than 99%% of rows: %v\n", stats.SkipFraction() > 0.99)
	// Output:
	// skipped more than 99% of rows: true
}
