package core

import (
	"math"
	"math/rand"
	"testing"

	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
)

// identity returns the full candidate list 0..n-1.
func identity(n int) []int32 {
	cand := make([]int32, n)
	for i := range cand {
		cand[i] = int32(i)
	}
	return cand
}

// reorderTol bounds the drift between the gathered chunk (4-row Go
// kernels) and the dense chunk (dispatched block kernels) evaluating
// the same rows: |a − b| <= reorderTol·(1 + |b|) per output element.
const reorderTol = 1e-5

func withinReorder(a, b float32) bool {
	return math.Abs(float64(a)-float64(b)) <= reorderTol*(1+math.Abs(float64(b)))
}

// TestInferCandidatesFullSetMatchesInferPartial pins the degeneration
// contract: the identity candidate list with the same chunk size is
// the dense sweep — same statistics, outputs within reorderTol — at
// every worker count and skip mode.
func TestInferCandidatesFullSetMatchesInferPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name string
		ns   int
		opt  Options
	}{
		{"serial", 500, Options{ChunkSize: 128}},
		{"serial-offcut", 333, Options{ChunkSize: 100}},
		{"parallel", 1000, Options{ChunkSize: 128, Pool: tensor.NewPool(4)}},
		{"skip", 700, Options{ChunkSize: 128, SkipThreshold: 0.01}},
		{"parallel-skip", 700, Options{ChunkSize: 100, SkipThreshold: 0.01, Pool: tensor.NewPool(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := randomMemory(t, rng, tc.ns, 32)
			c := NewColumn(mem, tc.opt)
			u := tensor.RandomVector(rng, 32, 1)

			dense := GetPartial(32)
			stDense := c.InferPartial(u, dense, 0, tc.ns)
			oDense := tensor.NewVector(32)
			dense.Finalize(oDense)

			cand := identity(tc.ns)
			sub := GetPartial(32)
			stCand := c.InferCandidates(u, cand, sub)
			oCand := tensor.NewVector(32)
			sub.Finalize(oCand)

			if stDense != stCand {
				t.Errorf("stats differ: dense %+v cand %+v", stDense, stCand)
			}
			for i := range oDense {
				if !withinReorder(oCand[i], oDense[i]) {
					t.Fatalf("output %d: gathered %v, dense %v", i, oCand[i], oDense[i])
				}
			}
			PutPartial(dense)
			PutPartial(sub)
			if tc.opt.Pool != nil {
				tc.opt.Pool.Close()
			}
		})
	}
}

// TestInferCandidatesSubsetMatchesReference checks the gathered math
// against a naive stabilized softmax over the same subset.
func TestInferCandidatesSubsetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	mem := randomMemory(t, rng, 400, 16)
	c := NewColumn(mem, Options{ChunkSize: 64})
	u := tensor.RandomVector(rng, 16, 1)

	cand := []int32{0, 3, 17, 42, 43, 44, 99, 100, 255, 399}
	part := GetPartial(16)
	st := c.InferCandidates(u, cand, part)
	got := tensor.NewVector(16)
	part.Finalize(got)
	PutPartial(part)

	if st.TotalRows != int64(len(cand)) {
		t.Errorf("TotalRows = %d, want %d", st.TotalRows, len(cand))
	}

	logits := make([]float64, len(cand))
	maxL := math.Inf(-1)
	for i, r := range cand {
		logits[i] = float64(tensor.Dot(u, mem.In.Row(int(r))))
		maxL = math.Max(maxL, logits[i])
	}
	var sum float64
	want := make([]float64, 16)
	for i, l := range logits {
		e := math.Exp(l - maxL)
		sum += e
		for j, x := range mem.Out.Row(int(cand[i])) {
			want[j] += e * float64(x)
		}
	}
	for j := range want {
		if d := math.Abs(want[j]/sum - float64(got[j])); d > 1e-4 {
			t.Fatalf("output %d differs from reference by %v", j, d)
		}
	}
}

// TestInferCandidatesDeterministicAcrossWorkers pins the bit-identity
// contract of the candidate sweep across worker counts.
func TestInferCandidatesDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	mem := randomMemory(t, rng, 2000, 24)
	u := tensor.RandomVector(rng, 24, 1)
	cand := make([]int32, 0, 700)
	for i := 0; i < 2000; i += 3 {
		cand = append(cand, int32(i))
	}

	var base tensor.Vector
	for _, workers := range []int{1, 2, 4, 8} {
		pool := tensor.NewPool(workers)
		c := NewColumn(mem, Options{ChunkSize: 100, Pool: pool})
		part := GetPartial(24)
		c.InferCandidates(u, cand, part)
		o := tensor.NewVector(24)
		part.Finalize(o)
		PutPartial(part)
		pool.Close()
		if base == nil {
			base = o
			continue
		}
		for i := range o {
			if math.Float32bits(o[i]) != math.Float32bits(base[i]) {
				t.Fatalf("workers=%d: output bits differ at %d", workers, i)
			}
		}
	}
}

func TestInferCandidatesEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	mem := randomMemory(t, rng, 50, 8)
	c := NewColumn(mem, Options{})
	part := GetPartial(8)
	defer PutPartial(part)
	if st := c.InferCandidates(tensor.NewVector(8), nil, part); st != (Stats{}) {
		t.Errorf("empty candidate list produced stats %+v", st)
	}
	if part.Sum != 0 {
		t.Errorf("empty candidate list touched the partial")
	}
}

// TestTopKEngineFullProbeMatchesColumn: with every list probed the
// top-k engine is the column engine, within reorderTol.
func TestTopKEngineFullProbeMatchesColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	mem := randomMemory(t, rng, 800, 16)
	opt := Options{ChunkSize: 128}
	col := NewColumn(mem, opt)
	eng := NewTopK(mem, opt, sparse.IndexOptions{}, 0)
	if eng.Name() != "mnnfast-topk" {
		t.Errorf("Name() = %q", eng.Name())
	}
	eng.nprobe = eng.Index().NList() // full probe

	for q := 0; q < 5; q++ {
		u := tensor.RandomVector(rng, 16, 1)
		a := tensor.NewVector(16)
		b := tensor.NewVector(16)
		stCol := col.Infer(u, a)
		stTop := eng.Infer(u, b)
		if stCol.TotalRows != stTop.TotalRows {
			t.Errorf("row counts differ: %d vs %d", stCol.TotalRows, stTop.TotalRows)
		}
		for i := range a {
			if !withinReorder(b[i], a[i]) {
				t.Fatalf("query %d: output %d: top-k %v, column %v", q, i, b[i], a[i])
			}
		}
	}
}

// TestTopKEngineProbesFewerRows: the point of the index — a narrow
// probe touches a fraction of the memory.
func TestTopKEngineProbesFewerRows(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	mem := randomMemory(t, rng, 4096, 16)
	eng := NewTopK(mem, Options{ChunkSize: 256}, sparse.IndexOptions{}, 2)
	u := tensor.RandomVector(rng, 16, 1)
	o := tensor.NewVector(16)
	st := eng.Infer(u, o)
	if st.TotalRows == 0 || st.TotalRows >= 4096/2 {
		t.Fatalf("nprobe=2 of %d lists considered %d of 4096 rows",
			eng.Index().NList(), st.TotalRows)
	}
	if st.Inferences != 1 {
		t.Errorf("Inferences = %d", st.Inferences)
	}
}

func TestInferCandidatesSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	mem := randomMemory(t, rng, 1500, 16)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"serial", Options{ChunkSize: 256}},
		{"parallel", Options{ChunkSize: 256, Pool: tensor.NewPool(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewColumn(mem, tc.opt)
			u := tensor.RandomVector(rng, 16, 1)
			cand := identity(1500)
			o := tensor.NewVector(16)
			run := func() {
				part := GetPartial(16)
				c.InferCandidates(u, cand, part)
				part.Finalize(o)
				PutPartial(part)
			}
			run() // warm the scratch pools
			if raceEnabled {
				t.Skip("allocation counts are not meaningful under -race")
			}
			if a := testing.AllocsPerRun(20, run); a != 0 {
				t.Errorf("InferCandidates allocates %v per op at steady state", a)
			}
			if tc.opt.Pool != nil {
				tc.opt.Pool.Close()
			}
		})
	}
}

func TestTopKEngineSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	mem := randomMemory(t, rng, 2000, 16)
	eng := NewTopK(mem, Options{ChunkSize: 256}, sparse.IndexOptions{}, 4)
	u := tensor.RandomVector(rng, 16, 1)
	o := tensor.NewVector(16)
	eng.Infer(u, o) // warm the scratch pools
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if a := testing.AllocsPerRun(20, func() { eng.Infer(u, o) }); a != 0 {
		t.Errorf("TopK.Infer allocates %v per op at steady state", a)
	}
}
