package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mnnfast/internal/memtrace"
	"mnnfast/internal/tensor"
)

func randomMemory(t testing.TB, rng *rand.Rand, ns, ed int) *Memory {
	t.Helper()
	mem, err := NewMemory(
		tensor.GaussianMatrix(rng, ns, ed, 0.8),
		tensor.GaussianMatrix(rng, ns, ed, 0.8),
	)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// reference computes o = softmax(u·M_INᵀ)·M_OUT directly.
func reference(mem *Memory, u tensor.Vector) tensor.Vector {
	p := tensor.NewVector(mem.NS())
	tensor.MatVec(nil, mem.In, u, p)
	tensor.Softmax(p)
	o := tensor.NewVector(mem.Dim())
	tensor.VecMat(nil, p, mem.Out, o)
	return o
}

// bitsEqual reports whether two vectors are bitwise identical and
// returns the first differing index.
func bitsEqual(a, b tensor.Vector) (bool, int) {
	if len(a) != len(b) {
		return false, -1
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false, i
		}
	}
	return true, 0
}

func TestNewMemoryValidation(t *testing.T) {
	if _, err := NewMemory(nil, nil); err == nil {
		t.Error("nil matrices accepted")
	}
	if _, err := NewMemory(tensor.NewMatrix(2, 3), tensor.NewMatrix(3, 2)); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := NewMemory(tensor.NewMatrix(0, 3), tensor.NewMatrix(0, 3)); err == nil {
		t.Error("empty memory accepted")
	}
	mem, err := NewMemory(tensor.NewMatrix(4, 3), tensor.NewMatrix(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if mem.NS() != 4 || mem.Dim() != 3 {
		t.Errorf("NS/Dim = %d/%d", mem.NS(), mem.Dim())
	}
}

func TestBaselineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{1, 1}, {7, 5}, {100, 48}, {1000, 16}} {
		mem := randomMemory(t, rng, shape[0], shape[1])
		u := tensor.RandomVector(rng, shape[1], 1)
		want := reference(mem, u)
		got := tensor.NewVector(shape[1])
		NewBaseline(mem, Options{}).Infer(u, got)
		if d := tensor.MaxAbsDiff(want, got); d > 1e-4 {
			t.Errorf("ns=%d ed=%d: baseline differs from reference by %v", shape[0], shape[1], d)
		}
	}
}

func TestColumnMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range [][2]int{{1, 1}, {7, 5}, {100, 48}, {999, 32}, {5000, 48}} {
		for _, chunk := range []int{1, 7, 100, 1000} {
			mem := randomMemory(t, rng, shape[0], shape[1])
			u := tensor.RandomVector(rng, shape[1], 1)
			want := tensor.NewVector(shape[1])
			NewBaseline(mem, Options{}).Infer(u, want)
			got := tensor.NewVector(shape[1])
			NewColumn(mem, Options{ChunkSize: chunk}).Infer(u, got)
			if d := tensor.MaxAbsDiff(want, got); d > 1e-4 {
				t.Errorf("ns=%d ed=%d chunk=%d: column differs by %v",
					shape[0], shape[1], chunk, d)
			}
		}
	}
}

func TestColumnStreamingMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mem := randomMemory(t, rng, 2000, 48)
	u := tensor.RandomVector(rng, 48, 1)
	want := tensor.NewVector(48)
	NewBaseline(mem, Options{}).Infer(u, want)
	got := tensor.NewVector(48)
	NewColumn(mem, Options{ChunkSize: 128, Streaming: true}).Infer(u, got)
	if d := tensor.MaxAbsDiff(want, got); d > 1e-4 {
		t.Errorf("streaming column differs from baseline by %v", d)
	}
}

func TestQuickColumnEqualsBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64, nsRaw, edRaw, chunkRaw uint8) bool {
		ns := 1 + int(nsRaw)%300
		ed := 1 + int(edRaw)%64
		chunk := 1 + int(chunkRaw)%64
		r := rand.New(rand.NewSource(seed))
		mem := randomMemory(t, r, ns, ed)
		u := tensor.RandomVector(r, ed, 1)
		a := tensor.NewVector(ed)
		b := tensor.NewVector(ed)
		NewBaseline(mem, Options{}).Infer(u, a)
		NewColumn(mem, Options{ChunkSize: chunk}).Infer(u, b)
		return tensor.MaxAbsDiff(a, b) <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestColumnLargeLogitsStable(t *testing.T) {
	// The online max-shift must keep the lazy softmax finite even when
	// raw exponentials of the logits overflow float32.
	mem, err := NewMemory(tensor.NewMatrix(100, 4), tensor.NewMatrix(100, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mem.In.Row(i).Fill(float32(i)) // logits up to ~400·|u|
		mem.Out.Row(i).Fill(1)
	}
	u := tensor.Vector{100, 100, 100, 100}
	o := tensor.NewVector(4)
	NewColumn(mem, Options{ChunkSize: 16}).Infer(u, o)
	for _, x := range o {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			t.Fatalf("lazy softmax overflowed: %v", o)
		}
	}
	// Attention collapses onto the last row whose out-vector is all
	// ones, so o ≈ 1.
	if d := tensor.MaxAbsDiff(o, tensor.Vector{1, 1, 1, 1}); d > 1e-3 {
		t.Errorf("o = %v, want ≈ [1 1 1 1]", o)
	}
}

func TestZeroSkippingReducesWorkNotResults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ns, ed := 3000, 32
	mem := randomMemory(t, rng, ns, ed)
	// Sharpen the logits so attention is sparse, as trained models are.
	for i := range mem.In.Data {
		mem.In.Data[i] *= 4
	}
	u := tensor.RandomVector(rng, ed, 1)

	exact := tensor.NewVector(ed)
	stExact := NewColumn(mem, Options{ChunkSize: 256}).Infer(u, exact)
	if stExact.SkippedRows != 0 {
		t.Fatalf("skipping disabled but %d rows skipped", stExact.SkippedRows)
	}

	skip := tensor.NewVector(ed)
	stSkip := NewColumn(mem, Options{ChunkSize: 256, SkipThreshold: 0.01}).Infer(u, skip)
	if stSkip.SkippedRows == 0 {
		t.Fatal("no rows skipped at threshold 0.01 despite sharp attention")
	}
	if stSkip.WeightedSumMuls >= stExact.WeightedSumMuls {
		t.Errorf("skipping did not reduce weighted-sum work: %d >= %d",
			stSkip.WeightedSumMuls, stExact.WeightedSumMuls)
	}
	// Near-zero attention rows contribute almost nothing, so outputs
	// stay close.
	if d := tensor.MaxAbsDiff(exact, skip); d > 0.05 {
		t.Errorf("zero-skipping perturbed the output by %v", d)
	}
	if got := stSkip.SkipFraction(); got <= 0 || got > 1 {
		t.Errorf("SkipFraction = %v", got)
	}
}

func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ns, ed := 500, 24
	mem := randomMemory(t, rng, ns, ed)
	u := tensor.RandomVector(rng, ed, 1)
	o := tensor.NewVector(ed)

	base := NewBaseline(mem, Options{}).Infer(u, o)
	if base.InnerProductMuls != int64(ns*ed) {
		t.Errorf("baseline inner-product muls = %d, want %d", base.InnerProductMuls, ns*ed)
	}
	if base.Divisions != int64(ns) {
		t.Errorf("baseline divisions = %d, want ns=%d", base.Divisions, ns)
	}
	if base.Exps != int64(ns) {
		t.Errorf("baseline exps = %d, want %d", base.Exps, ns)
	}
	if base.SpillBytes == 0 {
		t.Error("baseline reported no spill bytes")
	}

	col := NewColumn(mem, Options{ChunkSize: 100}).Infer(u, o)
	if col.Divisions != int64(ed) {
		t.Errorf("column divisions = %d, want ed=%d — the lazy-softmax claim", col.Divisions, ed)
	}
	if col.InnerProductMuls != base.InnerProductMuls {
		t.Errorf("column inner-product muls = %d, want %d", col.InnerProductMuls, base.InnerProductMuls)
	}
	if col.Exps != base.Exps {
		t.Errorf("column exps = %d, want %d", col.Exps, base.Exps)
	}
	if col.SpillBytes != 0 {
		t.Errorf("column reported %d spill bytes, want 0", col.SpillBytes)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{InnerProductMuls: 1, WeightedSumMuls: 2, Exps: 3, Divisions: 4,
		SkippedRows: 5, TotalRows: 6, SpillBytes: 7, Inferences: 8}
	b := a
	a.Add(b)
	if a.InnerProductMuls != 2 || a.Inferences != 16 || a.SpillBytes != 14 {
		t.Errorf("Add result wrong: %+v", a)
	}
	if a.TotalMuls() != 2+4 {
		t.Errorf("TotalMuls = %d", a.TotalMuls())
	}
	if (Stats{}).SkipFraction() != 0 {
		t.Error("SkipFraction of empty stats should be 0")
	}
}

func TestPartialMergeCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ed := 8
	mk := func() *partial {
		p := newPartial(ed)
		p.Max = rng.Float32() * 10
		p.Sum = rng.Float32() + 0.1
		p.O = tensor.RandomVector(rng, ed, 1)
		return &p
	}
	for trial := 0; trial < 30; trial++ {
		a1, b1 := mk(), mk()
		a2 := newPartial(ed)
		a2.Max, a2.Sum = a1.Max, a1.Sum
		copy(a2.O, a1.O)
		b2 := newPartial(ed)
		b2.Max, b2.Sum = b1.Max, b1.Sum
		copy(b2.O, b1.O)

		a1.Merge(b1)  // a ∪ b
		b2.Merge(&a2) // b ∪ a

		oa := tensor.NewVector(ed)
		ob := tensor.NewVector(ed)
		a1.Finalize(oa)
		b2.Finalize(ob)
		if d := tensor.MaxAbsDiff(oa, ob); d > 1e-5 {
			t.Fatalf("merge is not commutative after finalize: %v", d)
		}
	}
}

func TestPartialMergeWithEmpty(t *testing.T) {
	ed := 4
	p := newPartial(ed)
	q := newPartial(ed)
	q.Max, q.Sum = 2, 3
	q.O.Fill(6)
	p.Merge(&q)
	o := tensor.NewVector(ed)
	p.Finalize(o)
	if d := tensor.MaxAbsDiff(o, tensor.Vector{2, 2, 2, 2}); d > 1e-6 {
		t.Errorf("merge into empty: o = %v, want all 2", o)
	}
	// Merging an empty partial must be a no-op.
	before := p.Sum
	empty := newPartial(ed)
	p.Merge(&empty)
	if p.Sum != before {
		t.Error("merging empty partial changed the sum")
	}
}

func TestTracedAccessesDifferBetweenEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ns, ed := 2048, 16
	mem := randomMemory(t, rng, ns, ed)
	u := tensor.RandomVector(rng, ed, 1)
	o := tensor.NewVector(ed)

	var cBase memtrace.Counter
	NewBaseline(mem, Options{Tracer: &cBase}).Infer(u, o)
	var cCol memtrace.Counter
	NewColumn(mem, Options{ChunkSize: 128, Tracer: &cCol}).Infer(u, o)

	// The baseline spills ns-sized P_exp and P vectors; the column
	// engine must not touch them at all.
	if cBase.RegionBytes(memtrace.RegionTempPexp) == 0 {
		t.Error("baseline traced no P_exp traffic")
	}
	if cCol.RegionBytes(memtrace.RegionTempPexp) != 0 {
		t.Error("column engine traced P_exp traffic — lazy softmax should remove it")
	}
	if cCol.RegionBytes(memtrace.RegionTempP) != 0 {
		t.Error("column engine traced P traffic")
	}
	// Both read the full memories once.
	memBytes := int64(ns * ed * 4)
	if got := cBase.Bytes[memtrace.RegionMemIn][memtrace.OpRead]; got != memBytes {
		t.Errorf("baseline M_IN read bytes = %d, want %d", got, memBytes)
	}
	if got := cCol.Bytes[memtrace.RegionMemIn][memtrace.OpRead]; got != memBytes {
		t.Errorf("column M_IN read bytes = %d, want %d", got, memBytes)
	}
}

func TestStreamingTracesPrefetches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mem := randomMemory(t, rng, 1024, 16)
	u := tensor.RandomVector(rng, 16, 1)
	o := tensor.NewVector(16)
	var c memtrace.Counter
	NewColumn(mem, Options{ChunkSize: 128, Streaming: true, Tracer: &c}).Infer(u, o)
	if c.Bytes[memtrace.RegionMemIn][memtrace.OpPrefetch] == 0 {
		t.Error("streaming engine traced no prefetches")
	}
	if c.Bytes[memtrace.RegionMemOut][memtrace.OpPrefetch] == 0 {
		t.Error("streaming engine traced no M_OUT prefetches")
	}
}

// touch is one traced access.
type touch struct {
	region memtrace.Region
	op     memtrace.Op
	offset int64
}

// recorder is a Toucher that keeps the whole access stream.
type recorder []touch

func (r *recorder) Touch(region memtrace.Region, op memtrace.Op, offset int64, bytes int) {
	*r = append(*r, touch{region, op, offset})
}

// TestStreamingPrefetchesOneChunkAhead pins the double buffer's access
// order: chunk k+1 is prefetched before chunk k's first M_IN read, and
// chunk k+2 only after chunk k's last one. Two traced runs must give
// the same stream, and streaming must not change a bit of the output.
func TestStreamingPrefetchesOneChunkAhead(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const ns, ed, chunk = 1000, 16, 128 // a short last chunk
	rowBytes := int64(ed * 4)
	mem := randomMemory(t, rng, ns, ed)
	u := tensor.RandomVector(rng, ed, 1)

	want := tensor.NewVector(ed)
	NewColumn(mem, Options{ChunkSize: chunk}).Infer(u, want)

	var runs [2]recorder
	for i := range runs {
		got := tensor.NewVector(ed)
		NewColumn(mem, Options{ChunkSize: chunk, Streaming: true, Tracer: &runs[i]}).Infer(u, got)
		if ok, j := bitsEqual(got, want); !ok {
			t.Fatalf("run %d: streaming output differs from plain at element %d", i, j)
		}
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("traced runs differ in length: %d vs %d", len(runs[0]), len(runs[1]))
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("traced runs differ at access %d: %+v vs %+v", i, runs[0][i], runs[1][i])
		}
	}

	// Positions in the stream of each chunk's first and last M_IN
	// prefetch and read.
	nChunks := (ns + chunk - 1) / chunk
	firstPF, lastPF := make([]int, nChunks), make([]int, nChunks)
	firstRd, lastRd := make([]int, nChunks), make([]int, nChunks)
	for i := range firstPF {
		firstPF[i], firstRd[i], lastPF[i], lastRd[i] = -1, -1, -1, -1
	}
	for i, a := range runs[0] {
		if a.region != memtrace.RegionMemIn {
			continue
		}
		k := int(a.offset/rowBytes) / chunk
		first, last := firstRd, lastRd
		if a.op == memtrace.OpPrefetch {
			first, last = firstPF, lastPF
		}
		if first[k] < 0 {
			first[k] = i
		}
		last[k] = i
	}
	for k := 0; k < nChunks; k++ {
		if firstPF[k] < 0 || firstRd[k] < 0 {
			t.Fatalf("chunk %d: no M_IN prefetch or read traced", k)
		}
		if lastPF[k] > firstRd[k] {
			t.Errorf("chunk %d is read before its prefetch completes", k)
		}
		if k+1 < nChunks && lastPF[k+1] > firstRd[k] {
			t.Errorf("chunk %d's prefetch does not complete before chunk %d's first read", k+1, k)
		}
		if k+2 < nChunks && firstPF[k+2] < lastRd[k] {
			t.Errorf("chunk %d is prefetched before chunk %d's reads end: more than one chunk ahead", k+2, k)
		}
	}
}

func TestEngineNames(t *testing.T) {
	mem := randomMemory(t, rand.New(rand.NewSource(12)), 4, 2)
	cases := []struct {
		eng  Engine
		want string
	}{
		{NewBaseline(mem, Options{}), "baseline"},
		{NewColumn(mem, Options{}), "column"},
		{NewColumn(mem, Options{Streaming: true}), "column+stream"},
		{NewColumn(mem, Options{SkipThreshold: 0.1}), "column+skip"},
		{NewColumn(mem, Options{Streaming: true, SkipThreshold: 0.1}), "mnnfast"},
	}
	for _, c := range cases {
		if got := c.eng.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestSkippingAvoidsMemOutPrefetch(t *testing.T) {
	// With zero-skipping on, the streaming prefetcher must not pull
	// M_OUT wholesale: skipped rows never touch it at all, so total
	// M_OUT traffic (prefetch + demand) collapses with the skip rate.
	rng := rand.New(rand.NewSource(14))
	ns, ed := 4096, 16
	mem := randomMemory(t, rng, ns, ed)
	for i := range mem.In.Data {
		mem.In.Data[i] *= 4 // sharp attention → high skip rate
	}
	u := tensor.RandomVector(rng, ed, 1)
	o := tensor.NewVector(ed)

	var noSkip memtrace.Counter
	NewColumn(mem, Options{ChunkSize: 256, Streaming: true, Tracer: &noSkip}).Infer(u, o)
	var skip memtrace.Counter
	NewColumn(mem, Options{ChunkSize: 256, Streaming: true, SkipThreshold: 0.1, Tracer: &skip}).Infer(u, o)

	if got := skip.Bytes[memtrace.RegionMemOut][memtrace.OpPrefetch]; got != 0 {
		t.Errorf("skipping engine prefetched %d M_OUT bytes, want 0", got)
	}
	outNoSkip := noSkip.RegionBytes(memtrace.RegionMemOut)
	outSkip := skip.RegionBytes(memtrace.RegionMemOut)
	if outSkip >= outNoSkip/4 {
		t.Errorf("skipping did not collapse M_OUT traffic: %d vs %d", outSkip, outNoSkip)
	}
	// M_IN must still be fully prefetched either way.
	if skip.Bytes[memtrace.RegionMemIn][memtrace.OpPrefetch] == 0 {
		t.Error("skipping engine stopped prefetching M_IN")
	}
}

func TestAllOptionCombinationsAgree(t *testing.T) {
	// Every combination of {chunking, streaming} must produce the exact
	// result; zero-skipping on sharp attention must stay close to it.
	rng := rand.New(rand.NewSource(16))
	ns, ed := 4096, 32
	mem := randomMemory(t, rng, ns, ed)
	for i := range mem.In.Data {
		mem.In.Data[i] *= 4
	}
	u := tensor.RandomVector(rng, ed, 1)
	want := tensor.NewVector(ed)
	NewBaseline(mem, Options{}).Infer(u, want)

	exact := []Engine{
		NewColumn(mem, Options{ChunkSize: 64}),
		NewColumn(mem, Options{ChunkSize: 64, Streaming: true}),
		NewColumn(mem, Options{ChunkSize: 333}),
		NewColumn(mem, Options{ChunkSize: 128, Streaming: true}),
		NewColumn(mem, Options{ChunkSize: ns, Streaming: true}),
	}
	for _, eng := range exact {
		got := tensor.NewVector(ed)
		eng.Infer(u, got)
		if d := tensor.MaxAbsDiff(want, got); d > 1e-4 {
			t.Errorf("%s: differs from baseline by %v", eng.Name(), d)
		}
	}

	skipping := []Engine{
		NewColumn(mem, Options{ChunkSize: 64, SkipThreshold: 0.01}),
		NewColumn(mem, Options{ChunkSize: 128, Streaming: true, SkipThreshold: 0.01}),
	}
	for _, eng := range skipping {
		got := tensor.NewVector(ed)
		st := eng.Infer(u, got)
		if st.SkippedRows == 0 {
			t.Errorf("%s: skipped nothing on sharp attention", eng.Name())
		}
		if d := tensor.MaxAbsDiff(want, got); d > 0.05 {
			t.Errorf("%s: zero-skipping perturbed output by %v", eng.Name(), d)
		}
	}
}
