package experiments

import (
	"math/rand"
	"time"

	"mnnfast/internal/core"
	"mnnfast/internal/tensor"
)

// MeasuredResult reports real wall-clock inference latencies of the
// four designs on this machine — the hardware-independent part of the
// paper's CPU claims: the column-based algorithm's locality win and
// zero-skipping's compute reduction survive any substrate.
type MeasuredResult struct {
	Variants  []EngineVariant
	NS, ED    int
	Reps      int
	Latency   []time.Duration // mean per-inference latency
	Speedup   []float64       // vs baseline
	MaxOutErr float64         // max output divergence across variants
}

// Measured times the engines on a shared random database.
func Measured(cfg Config) *MeasuredResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	mem := newDatabase(rng, cfg.NS, cfg.ED)
	u := tensor.RandomVector(rng, cfg.ED, 1)
	reps := 5
	res := &MeasuredResult{Variants: AllVariants(), NS: cfg.NS, ED: cfg.ED, Reps: reps}

	var ref tensor.Vector
	for _, v := range res.Variants {
		eng := buildEngine(v, mem, core.Options{ChunkSize: cfg.Chunk})
		o := tensor.NewVector(cfg.ED)
		eng.Infer(u, o) // warm-up
		start := time.Now()
		for r := 0; r < reps; r++ {
			eng.Infer(u, o)
		}
		res.Latency = append(res.Latency, time.Since(start)/time.Duration(reps))
		if v == VariantBaseline {
			ref = o.Clone()
		} else if v != VariantMnnFast { // zero-skipping perturbs slightly
			if d := float64(tensor.MaxAbsDiff(ref, o)); d > res.MaxOutErr {
				res.MaxOutErr = d
			}
		}
	}
	for _, l := range res.Latency {
		res.Speedup = append(res.Speedup, float64(res.Latency[0])/float64(l))
	}
	return res
}

// Table renders the result.
func (r *MeasuredResult) Table() *Table {
	t := &Table{
		ID:      "measured",
		Title:   "real wall-clock per-inference latency on this machine (single question)",
		Headers: []string{"variant", "latency", "speedup vs baseline"},
	}
	for i, v := range r.Variants {
		t.AddRow(v.String(), r.Latency[i].String(), f2(r.Speedup[i]))
	}
	t.Note("ns=%d ed=%d, %d reps; exact variants agree within %.2g", r.NS, r.ED, r.Reps, r.MaxOutErr)
	t.Note("streaming prefetches on the compute goroutine, so it cannot overlap here; its win appears in the modelled figures")
	return t
}
