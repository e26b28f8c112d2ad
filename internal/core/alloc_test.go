package core

import (
	"math/rand"
	"runtime"
	"testing"

	"mnnfast/internal/memtrace"
	"mnnfast/internal/tensor"
)

// Steady-state allocation assertions. The column engine owns its chunk
// scratch, so after construction repeated queries allocate nothing and
// spawn nothing — streaming included, since its prefetch runs on the
// caller's goroutine.

var columnRuntimeCases = []struct {
	name string
	opt  Options
}{
	{"serial", Options{ChunkSize: 512}},
	{"skip", Options{ChunkSize: 512, SkipThreshold: 0.01}},
	{"streaming", Options{ChunkSize: 512, Streaming: true}},
	{"mnnfast", Options{ChunkSize: 512, Streaming: true, SkipThreshold: 0.01}},
}

func TestInferAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mem := randomMemory(t, rng, 4096, 64)
	u := tensor.RandomVector(rng, 64, 1)
	o := tensor.NewVector(64)

	for _, tc := range columnRuntimeCases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewColumn(mem, tc.opt)
			allocs := testing.AllocsPerRun(100, func() {
				c.Infer(u, o)
			})
			if allocs != 0 {
				t.Errorf("Column.Infer allocates %v per call, want 0", allocs)
			}
		})
	}
}

// goroutineWatch is a Toucher that records the most goroutines alive
// at any traced access of a query.
type goroutineWatch struct{ max int }

func (g *goroutineWatch) Touch(memtrace.Region, memtrace.Op, int64, int) {
	g.max = max(g.max, runtime.NumGoroutine())
}

// TestInferSpawnsNoGoroutines checks that no configuration runs a
// goroutine beside the query or leaves one behind.
func TestInferSpawnsNoGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	mem := randomMemory(t, rng, 4096, 32)
	u := tensor.RandomVector(rng, 32, 1)
	o := tensor.NewVector(32)
	for _, tc := range columnRuntimeCases {
		var watch goroutineWatch
		opt := tc.opt
		opt.Tracer = &watch
		c := NewColumn(mem, opt)
		before := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			c.Infer(u, o)
		}
		if watch.max > before {
			t.Errorf("%s: %d goroutines alive during a query, %d before it", tc.name, watch.max, before)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: goroutine count grew from %d to %d across queries", tc.name, before, after)
		}
	}
}
