package core

import (
	"sync/atomic"

	"mnnfast/internal/memtrace"
	"mnnfast/internal/sched"
	"mnnfast/internal/tensor"
)

// Column is the MnnFast column-based engine (§3.1). The memories are
// partitioned into chunks; every chunk is processed with chunk-sized
// scratch (inner products and exponentials never materialize at ns
// scale), the weighted sum accumulates directly, and softmax's division
// is deferred to a single final pass of ed divisions (lazy softmax,
// Equation 4).
//
// Numerical note: the paper's equations use raw exponentials; this
// implementation computes each chunk as a self-contained stabilized
// Partial — shifted by the chunk's own maximum — and merges the chunk
// partials in ascending chunk order (Partial.Merge re-expresses both
// sides relative to the common maximum). The shift cancels in the final
// division, so results equal the baseline's stabilized softmax while
// single-pass streaming is preserved.
//
// Determinism note: chunk partials are independent of each other and of
// which worker computes them, and the merge order is fixed (ascending
// chunk index). Output bits are therefore identical at every worker
// count, with or without work stealing — the contract the parallel
// scheduler (internal/sched) is built around.
//
// Runtime note: the steady-state query path is allocation- and
// spawn-free. Per-query partials and per-worker chunk scratch come from
// process-wide sync.Pools (scratch.go), chunk parallelism rides the
// work-stealing scheduler over the persistent tensor.Pool workers, and
// the dense loops use the dispatched multi-row kernels (DotRows,
// AxpyRows) and the float32 fast-exp. The one exception is serial
// Streaming mode, whose prefetcher is inherently a pipeline and spawns
// one goroutine per query.
type Column struct {
	mem *Memory
	opt Options
	sch *sched.Scheduler

	// prefetchSink defeats dead-code elimination of the streaming
	// prefetcher's warming loads.
	prefetchSink atomic.Uint64
}

// NewColumn returns a column-based engine over mem. When opt.Pool is
// set, chunks are distributed over its persistent workers by a
// work-stealing scheduler; a nil pool runs serially.
func NewColumn(mem *Memory, opt Options) *Column {
	return &Column{mem: mem, opt: opt, sch: sched.New(opt.Pool)}
}

// Scheduler exposes the engine's chunk scheduler for observability:
// per-worker chunk/steal/idle counters feed the metrics endpoint and
// the benchmark emitter.
//
//mnnfast:coldpath
func (c *Column) Scheduler() *sched.Scheduler { return c.sch }

// Name implements Engine.
//
//mnnfast:coldpath
func (c *Column) Name() string {
	switch {
	case c.opt.SkipThreshold > 0 && c.opt.Streaming:
		return "mnnfast" // column + streaming + zero-skipping
	case c.opt.Streaming:
		return "column+stream"
	case c.opt.SkipThreshold > 0:
		return "column+skip"
	}
	return "column"
}

// Infer implements Engine.
//
//mnnfast:hotpath
func (c *Column) Infer(u, o tensor.Vector) Stats {
	part := GetPartial(c.mem.Dim())
	st := c.InferPartial(u, part, 0, c.mem.NS())
	st.Divisions += part.Finalize(o)
	PutPartial(part)
	st.Inferences = 1
	if tr := c.opt.Tracer; tr != nil {
		memtrace.Touch(tr, memtrace.RegionOutput, memtrace.OpWrite, 0, c.mem.Dim()*4)
	}
	return st
}

// InferPartial processes rows [lo, hi) of the memory for question state
// u, merging the result into part. It performs no final division, so
// shards across workers or nodes can merge their partials before one
// Finalize — the paper's scale-out dataflow, where only O(ed) partial
// results synchronize (§3.1).
//
// The row range is split into chunk-granularity work items executed by
// the work-stealing scheduler on the persistent pool workers; each item
// produces an independent chunk Partial, and the partials merge in
// ascending chunk order, so the result is bit-identical at every worker
// count. Scratch is pooled: at steady state the call allocates nothing
// and spawns nothing.
//
//mnnfast:hotpath
func (c *Column) InferPartial(u tensor.Vector, part *Partial, lo, hi int) Stats {
	n := hi - lo
	if n <= 0 {
		return Stats{}
	}
	cs := c.opt.chunkSize()
	nItems := (n + cs - 1) / cs
	w := c.sch.Workers()
	if w > nItems {
		w = nItems
	}
	s := getInferScratch(c, u, lo, nItems, w)
	if c.opt.Streaming && w == 1 {
		c.streamBand(u, lo, hi, s)
	} else {
		c.sch.Run(lo, n, cs, s.fn)
	}
	var st Stats
	for i := range s.chunkParts {
		part.Merge(&s.chunkParts[i])
	}
	for b := range s.stats {
		st.Add(s.stats[b])
	}
	putInferScratch(s)
	return st
}

// streamBand is the serial streaming pipeline: a prefetcher goroutine
// runs ahead of the compute loop, pulling upcoming chunks' memory rows
// toward the cache while the current chunk computes. The ready
// channel's buffer is the pipeline depth; the default of 1 is exactly
// the paper's double-buffer design. With more than one worker the
// pipeline is unnecessary — each worker's synchronous prefetch overlaps
// with the other workers' compute — so this path runs only at width 1.
// The prefetcher closure is built once per band and amortizes across
// every chunk in it; the goroutine spawn it feeds dwarfs the capture
// allocation.
//
//mnnfast:hotpath allow=closure
func (c *Column) streamBand(u tensor.Vector, lo, hi int, s *inferScratch) {
	depth := c.opt.PrefetchDepth
	if depth < 1 {
		depth = 1
	}
	cs := c.opt.chunkSize()
	type span struct{ lo, hi int }
	ready := make(chan span, depth)
	go func() {
		defer close(ready)
		for cLo := lo; cLo < hi; cLo += cs {
			cHi := cLo + cs
			if cHi > hi {
				cHi = hi
			}
			c.prefetchChunk(cLo, cHi)
			ready <- span{cLo, cHi}
		}
	}()
	for sp := range ready {
		idx := (sp.lo - lo) / cs
		c.processChunk(u, sp.lo, sp.hi, 0, &s.chunkParts[idx], s.logits[0], &s.stats[0])
	}
}

// prefetchChunk warms rows [lo, hi): it reads one element per cache
// line (genuine loads the compiler cannot elide) and reports the
// accesses to the tracer as prefetches. M_OUT is prefetched only when
// zero-skipping is off — with skipping enabled the weighted sum fetches
// an output row only after its exponential passes the threshold (the
// paper's FPGA dataflow, §4.2), so prefetching M_OUT wholesale would
// waste the bandwidth the optimization saves.
//
//mnnfast:hotpath
func (c *Column) prefetchChunk(lo, hi int) {
	tr := c.opt.Tracer
	ed := c.mem.Dim()
	rowBytes := ed * 4
	prefetchOut := c.opt.SkipThreshold <= 0
	const lineFloats = 16 // 64-byte lines of float32
	var sink float32
	// One sequential burst per memory stream (not interleaved per row):
	// long same-region runs ride open DRAM rows, which is where the
	// streamed design's bandwidth efficiency comes from.
	for i := lo; i < hi; i++ {
		memtrace.Touch(tr, memtrace.RegionMemIn, memtrace.OpPrefetch, int64(i)*int64(rowBytes), rowBytes)
		in := c.mem.In.Row(i)
		for j := 0; j < ed; j += lineFloats {
			sink += in[j]
		}
	}
	if prefetchOut {
		for i := lo; i < hi; i++ {
			memtrace.Touch(tr, memtrace.RegionMemOut, memtrace.OpPrefetch, int64(i)*int64(rowBytes), rowBytes)
			out := c.mem.Out.Row(i)
			for j := 0; j < ed; j += lineFloats {
				sink += out[j]
			}
		}
	}
	c.prefetchSink.Add(uint64(int64(sink)) & 1)
}

// processChunk computes inner products, exponentials, and the weighted
// sum for rows [lo, hi) into the chunk's own Partial p: the shift is
// the chunk maximum, the sum is the chunk's exponential mass, and the
// accumulator starts from zero. The result depends only on the chunk's
// rows — never on which worker ran it or what ran before it — which is
// what makes the scheduler's out-of-order execution bit-deterministic
// after the in-order merge. The dense loops are one DotRows and one
// AxpyRows call per chunk — the dispatched block kernels, so the chunk
// loop runs at the active kernel tier like the baseline's long passes
// do — and the exponentials use the vectorized fast-exp; tracer
// bookkeeping is hoisted behind nil checks so the untraced serving path
// pays nothing for it.
//
//mnnfast:hotpath
func (c *Column) processChunk(u tensor.Vector, lo, hi, worker int, p *Partial, logits tensor.Vector, st *Stats) {
	mem, tr := c.mem, c.opt.Tracer
	ed := mem.Dim()
	rowBytes := ed * 4
	n := hi - lo
	t := logits[:n]

	// Step 1+2 of Fig 5(b): chunk inner products, one block-kernel call
	// for the whole chunk.
	tensor.DotRows(mem.In.Data[lo*ed:hi*ed], u, t)
	if tr != nil {
		// Scratch offsets are per worker so the trace reflects genuine
		// reuse of a small buffer rather than an ns-sized spill.
		scratchBase := int64(worker) * int64(c.opt.chunkSize()) * 4
		for i := lo; i < hi; i++ {
			memtrace.Touch(tr, memtrace.RegionQuestion, memtrace.OpRead, 0, rowBytes)
			memtrace.Touch(tr, memtrace.RegionMemIn, memtrace.OpRead, int64(i)*int64(rowBytes), rowBytes)
			memtrace.Touch(tr, memtrace.RegionTempIn, memtrace.OpWrite, scratchBase+int64(i-lo)*4, 4)
			memtrace.Touch(tr, memtrace.RegionTempIn, memtrace.OpRead, scratchBase+int64(i-lo)*4, 4)
		}
	}
	st.InnerProductMuls += int64(n) * int64(ed)

	// Step 3 of Fig 5(b): partial softmax under the chunk's own maximum
	// shift, accumulating the whole chunk's exponentials into P_sum (the
	// chunk scratch is cache-resident, so this extra pass is free of
	// DRAM traffic). The logit slots are reused for the exponentials.
	p.Max = t.Max()
	p.Sum = tensor.ExpInto(t, t, p.Max)
	st.Exps += int64(n)
	st.TotalRows += int64(n)

	// Weighted sum with zero-skipping (§3.2, Algorithm 1): a row is
	// bypassed when its exponential is below th × the chunk's sum —
	// i.e. when its probability within the chunk alone is below th.
	// The chunk sum can only be smaller than the final normalizer, so
	// every skip here would also be skipped by the exact p_i < th rule:
	// sound, conservative, and convergent to the exact rule as the
	// chunk's share of the mass grows. Without a threshold the cut is 0
	// and no exponential is below it.
	cut := c.opt.SkipThreshold * p.Sum
	skipped := tensor.AxpyRows(t, mem.Out.Data[lo*ed:hi*ed], cut, p.O)
	if tr != nil {
		for i := lo; i < hi; i++ {
			if !(t[i-lo] < cut) {
				memtrace.Touch(tr, memtrace.RegionMemOut, memtrace.OpRead, int64(i)*int64(rowBytes), rowBytes)
			}
		}
	}
	st.SkippedRows += int64(skipped)
	st.WeightedSumMuls += int64(n-skipped) * int64(ed)
}
