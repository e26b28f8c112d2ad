package core

import (
	"fmt"
	"sync"

	"mnnfast/internal/memtrace"
	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
)

// Candidate-set inference: the column engine restricted to an explicit
// row subset, the core half of the approximate top-k attention path
// (ROADMAP "Million-row memories"). The caller — typically an IVF
// probe (sparse.TopKIndex.Candidates) — supplies ascending candidate
// rows; the chunk scheduler splits the *candidate positions* into
// chunk-granularity work items, each item computes a self-contained
// stabilized Partial over its gathered rows, and the partials merge in
// ascending item order. The result is therefore bit-identical at every
// worker count, exactly like InferPartial, and when the candidate set
// is every row with the same chunk size it evaluates InferPartial's
// chunks on the same rows — equal up to float32 reassociation, since
// the gather keeps the 4-row Go kernels where the dense chunk runs the
// dispatched block kernels.

// candScratch is the reusable state of one Column.InferCandidates
// call: one Partial per chunk item, per-worker logits scratch and
// stats, and the scheduler dispatch closure, built once per pooled
// object.
type candScratch struct {
	col        *Column
	u          tensor.Vector
	cand       []int32
	chunk      int
	chunkParts []Partial
	logits     []tensor.Vector
	stats      []Stats
	fn         func(worker, lo, hi int)
}

var candScratchPool = sync.Pool{New: func() any {
	s := new(candScratch)
	s.fn = func(worker, lo, hi int) {
		idx := lo / s.chunk
		s.col.processCandChunk(s.u, s.cand[lo:hi], worker, &s.chunkParts[idx], s.logits[worker], &s.stats[worker])
	}
	return s
}}

//mnnfast:pool-get
func getCandScratch(c *Column, u tensor.Vector, cand []int32, nItems, w int) *candScratch {
	s := candScratchPool.Get().(*candScratch)
	ed, chunk := c.mem.Dim(), c.opt.chunkSize()
	s.col, s.u, s.cand, s.chunk = c, u, cand, chunk
	s.chunkParts = resetParts(s.chunkParts, nItems, ed)
	if cap(s.logits) < w {
		logits := make([]tensor.Vector, w)
		copy(logits, s.logits[:cap(s.logits)])
		s.logits = logits
		s.stats = make([]Stats, w)
	}
	s.logits = s.logits[:w]
	s.stats = s.stats[:w]
	for i, l := range s.logits {
		if cap(l) < chunk {
			s.logits[i] = tensor.NewVector(chunk)
			continue
		}
		s.logits[i] = l[:chunk]
	}
	for i := range s.stats {
		s.stats[i] = Stats{}
	}
	return s
}

//mnnfast:pool-put
func putCandScratch(s *candScratch) {
	s.col, s.u, s.cand = nil, nil, nil
	candScratchPool.Put(s)
}

// InferCandidates processes only the memory rows listed in cand
// (ascending row ids) for question state u, merging the result into
// part. It is InferPartial over a gathered subset: chunk items cover
// candidate positions, each item is a self-contained stabilized
// Partial, and items merge in ascending order — bit-identical output
// at every worker count for a fixed candidate list. Streaming mode's
// prefetch pipeline does not apply (candidates are already a sparse
// gather); scratch is pooled, so the steady state allocates nothing.
//
//mnnfast:hotpath
func (c *Column) InferCandidates(u tensor.Vector, cand []int32, part *Partial) Stats {
	n := len(cand)
	if n == 0 {
		return Stats{}
	}
	cs := c.opt.chunkSize()
	nItems := (n + cs - 1) / cs
	w := c.sch.Workers()
	if w > nItems {
		w = nItems
	}
	s := getCandScratch(c, u, cand, nItems, w)
	c.sch.Run(0, n, cs, s.fn)
	var st Stats
	for i := range s.chunkParts {
		part.Merge(&s.chunkParts[i])
	}
	for b := range s.stats {
		st.Add(s.stats[b])
	}
	putCandScratch(s)
	return st
}

// processCandChunk is processChunk over gathered rows: inner products,
// chunk-stabilized exponentials, and the weighted sum for the
// candidate positions [0, len(cand)) of one chunk item. The chunking
// and the chunk-local skip rule match processChunk; the gathered rows
// are not contiguous, so the loops stay on the 4-row Dot4/Axpy4
// kernels.
//
//mnnfast:hotpath
func (c *Column) processCandChunk(u tensor.Vector, cand []int32, worker int, p *Partial, logits tensor.Vector, st *Stats) {
	mem, tr := c.mem, c.opt.Tracer
	ed := mem.Dim()
	rowBytes := ed * 4
	n := len(cand)
	t := logits[:n]

	in := mem.In
	i := 0
	for ; i+4 <= n; i += 4 {
		t[i], t[i+1], t[i+2], t[i+3] = tensor.Dot4(u,
			in.Row(int(cand[i])), in.Row(int(cand[i+1])),
			in.Row(int(cand[i+2])), in.Row(int(cand[i+3])))
	}
	for ; i < n; i++ {
		t[i] = tensor.Dot(u, in.Row(int(cand[i])))
	}
	if tr != nil {
		scratchBase := int64(worker) * int64(c.opt.chunkSize()) * 4
		for i := 0; i < n; i++ {
			memtrace.Touch(tr, memtrace.RegionQuestion, memtrace.OpRead, 0, rowBytes)
			memtrace.Touch(tr, memtrace.RegionMemIn, memtrace.OpRead, int64(cand[i])*int64(rowBytes), rowBytes)
			memtrace.Touch(tr, memtrace.RegionTempIn, memtrace.OpWrite, scratchBase+int64(i)*4, 4)
			memtrace.Touch(tr, memtrace.RegionTempIn, memtrace.OpRead, scratchBase+int64(i)*4, 4)
		}
	}
	st.InnerProductMuls += int64(n) * int64(ed)

	p.Max = t.Max()
	p.Sum = tensor.ExpInto(t, t, p.Max)
	st.Exps += int64(n)
	st.TotalRows += int64(n)

	th := c.opt.SkipThreshold
	out := mem.Out
	if th > 0 {
		cut := th * p.Sum
		for i := 0; i < n; i++ {
			e := t[i]
			if e < cut {
				st.SkippedRows++
				continue
			}
			if tr != nil {
				memtrace.Touch(tr, memtrace.RegionMemOut, memtrace.OpRead, int64(cand[i])*int64(rowBytes), rowBytes)
			}
			tensor.Axpy(e, out.Row(int(cand[i])), p.O)
			st.WeightedSumMuls += int64(ed)
		}
		return
	}
	i = 0
	for ; i+4 <= n; i += 4 {
		tensor.Axpy4(t[i], t[i+1], t[i+2], t[i+3],
			out.Row(int(cand[i])), out.Row(int(cand[i+1])),
			out.Row(int(cand[i+2])), out.Row(int(cand[i+3])), p.O)
	}
	for ; i < n; i++ {
		tensor.Axpy(t[i], out.Row(int(cand[i])), p.O)
	}
	if tr != nil {
		for i := 0; i < n; i++ {
			memtrace.Touch(tr, memtrace.RegionMemOut, memtrace.OpRead, int64(cand[i])*int64(rowBytes), rowBytes)
		}
	}
	st.WeightedSumMuls += int64(n) * int64(ed)
}

// TopK is the approximate top-k attention engine: an IVF probe over
// the index built from M_IN selects the candidate rows, and the
// column machinery streams only those rows through the lazy softmax.
// With nprobe >= the index's list count it degenerates to the column
// engine over every row (up to float32 reassociation, given the same
// chunk size).
type TopK struct {
	col    *Column
	idx    *sparse.TopKIndex
	nprobe int
}

// NewTopK builds a top-k engine over mem: an index over mem.In (built
// once, the story-ingest cost) plus a column engine for the candidate
// sweep. nprobe <= 0 selects sparse.DefaultNProbe at query time.
//
//mnnfast:coldpath
func NewTopK(mem *Memory, opt Options, ixOpt sparse.IndexOptions, nprobe int) *TopK {
	return NewTopKWithIndex(mem, opt, sparse.BuildTopKIndex(mem.In, ixOpt), nprobe)
}

// NewTopKWithIndex is NewTopK around an already-built index, so a probe
// sweep can reuse one index (the expensive artifact) across many
// engines. idx must have been built over mem.In.
//
//mnnfast:coldpath
func NewTopKWithIndex(mem *Memory, opt Options, idx *sparse.TopKIndex, nprobe int) *TopK {
	if idx.Rows() != mem.NS() {
		panic(fmt.Sprintf("core: index over %d rows used with %d-row memory", idx.Rows(), mem.NS()))
	}
	return &TopK{
		col:    NewColumn(mem, opt),
		idx:    idx,
		nprobe: nprobe,
	}
}

// Index exposes the engine's IVF index for observability and tests.
//
//mnnfast:coldpath
func (t *TopK) Index() *sparse.TopKIndex { return t.idx }

// Name implements Engine.
//
//mnnfast:coldpath
func (t *TopK) Name() string { return "mnnfast-topk" }

// Infer implements Engine: probe, then candidate-set lazy softmax.
//
//mnnfast:hotpath
func (t *TopK) Infer(u, o tensor.Vector) Stats {
	ps := sparse.GetProbeScratch()
	cand, _ := t.idx.Candidates(u, t.nprobe, ps)
	part := GetPartial(t.col.mem.Dim())
	st := t.col.InferCandidates(u, cand, part)
	st.Divisions += part.Finalize(o)
	PutPartial(part)
	sparse.PutProbeScratch(ps)
	st.Inferences = 1
	if tr := t.col.opt.Tracer; tr != nil {
		memtrace.Touch(tr, memtrace.RegionOutput, memtrace.OpWrite, 0, t.col.mem.Dim()*4)
	}
	return st
}
