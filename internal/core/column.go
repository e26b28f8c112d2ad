package core

import (
	"mnnfast/internal/memtrace"
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
// partial — shifted by the chunk's own maximum — and merges the chunk
// partials in ascending chunk order (partial.Merge re-expresses both
// sides relative to the common maximum). The shift cancels in the final
// division, so results equal the baseline's stabilized softmax while
// single-pass streaming is preserved.
//
// Runtime note: the engine runs on the caller's goroutine and owns its
// chunk scratch, as Baseline owns its ns-sized vectors, so a query
// allocates nothing and spawns nothing. The dense loops use the
// dispatched multi-row kernels (DotRows, AxpyRows) and the float32
// fast-exp.
type Column struct {
	mem *Memory
	opt Options

	acc    partial       // merge of the chunk partials so far
	part   partial       // the current chunk's partial
	logits tensor.Vector // the current chunk's logits, then exponentials

	// prefetchSink defeats dead-code elimination of the streaming
	// prefetcher's warming loads.
	prefetchSink float32
}

// NewColumn returns a column-based engine over mem.
func NewColumn(mem *Memory, opt Options) *Column {
	return &Column{
		mem:    mem,
		opt:    opt,
		acc:    newPartial(mem.Dim()),
		part:   newPartial(mem.Dim()),
		logits: tensor.NewVector(min(opt.chunkSize(), mem.NS())),
	}
}

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

// Infer implements Engine. Chunks run in ascending order, each merged
// into the running partial as it completes. With Streaming, chunk k+1
// is prefetched just before chunk k computes — the paper's double
// buffer, issued on the compute goroutine so the access stream is one
// deterministic sequence: prefetch 0, prefetch 1, compute 0, prefetch
// 2, compute 1, …
//
//mnnfast:hotpath
func (c *Column) Infer(u, o tensor.Vector) Stats {
	ns, cs := c.mem.NS(), c.opt.chunkSize()
	c.acc.reset()
	var st Stats
	if c.opt.Streaming {
		c.prefetchChunk(0, min(cs, ns))
	}
	for lo := 0; lo < ns; lo += cs {
		hi := min(lo+cs, ns)
		if c.opt.Streaming && hi < ns {
			c.prefetchChunk(hi, min(hi+cs, ns))
		}
		c.processChunk(u, lo, hi, &st)
		c.acc.Merge(&c.part)
	}
	st.Divisions += c.acc.Finalize(o)
	st.Inferences = 1
	if tr := c.opt.Tracer; tr != nil {
		memtrace.Touch(tr, memtrace.RegionOutput, memtrace.OpWrite, 0, c.mem.Dim()*4)
	}
	return st
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
	c.prefetchSink += sink
}

// processChunk computes inner products, exponentials, and the weighted
// sum for rows [lo, hi) into the chunk's own partial c.part: the shift
// is the chunk maximum, the sum is the chunk's exponential mass, and
// the accumulator starts from zero, so the result depends only on the
// chunk's rows. The dense loops are one DotRows and one AxpyRows call
// per chunk — the dispatched block kernels, so the chunk loop runs at
// the active kernel tier like the baseline's long passes do — and the
// exponentials use the vectorized fast-exp; tracer bookkeeping is
// hoisted behind nil checks so untraced runs pay nothing for it.
//
//mnnfast:hotpath
func (c *Column) processChunk(u tensor.Vector, lo, hi int, st *Stats) {
	mem, tr, p := c.mem, c.opt.Tracer, &c.part
	ed := mem.Dim()
	rowBytes := ed * 4
	n := hi - lo
	t := c.logits[:n]

	// Step 1+2 of Fig 5(b): chunk inner products, one block-kernel call
	// for the whole chunk.
	tensor.DotRows(mem.In.Data[lo*ed:hi*ed], u, t)
	if tr != nil {
		// Every chunk reuses the same small logits buffer, so the trace
		// shows cache-resident reuse rather than an ns-sized spill.
		for i := lo; i < hi; i++ {
			memtrace.Touch(tr, memtrace.RegionQuestion, memtrace.OpRead, 0, rowBytes)
			memtrace.Touch(tr, memtrace.RegionMemIn, memtrace.OpRead, int64(i)*int64(rowBytes), rowBytes)
			memtrace.Touch(tr, memtrace.RegionTempIn, memtrace.OpWrite, int64(i-lo)*4, 4)
			memtrace.Touch(tr, memtrace.RegionTempIn, memtrace.OpRead, int64(i-lo)*4, 4)
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
	p.O.Zero()
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
