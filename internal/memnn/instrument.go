package memnn

import (
	"fmt"
	"time"

	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
	"mnnfast/internal/trace"
)

// Instrumentation accumulates per-stage wall-clock time and
// zero-skipping row counters across forward passes. It is plain data:
// accumulating into it costs two time.Now reads per stage and a handful
// of integer adds, and allocates nothing, so a serving loop can keep
// one per pooled Forward and drain it into metrics after every request.
//
// The stages mirror the paper's per-operation accounting (Fig 9): the
// embedding operation (question + memory encode), the inference
// operation (per-hop inner product, softmax, weighted sum, state
// update), and the final output projection.
type Instrumentation struct {
	EmbedNS     int64 // question + memory embedding time
	AttentionNS int64 // per-hop inner product + softmax + weighted sum + state update
	OutputNS    int64 // final answer projection W·u
	GateNS      int64 // early-exit confidence gate evaluations (see ExitPolicy)
	SkippedRows int64 // weighted-sum rows bypassed by zero-skipping
	TotalRows   int64 // weighted-sum rows considered
	ProbedRows  int64 // rows scored by topk IVF probes (0 on the exact path)
	CandRows    int64 // rows surviving the topk cut into softmax + weighted sum

	// Ev, when non-nil, receives per-stage trace events
	// (embed-question/embed-memory/hop/output, plus the scheduler's
	// per-worker events in the batched path) with skipped-row
	// annotations. Reset nils it; callers re-attach their buffer after
	// each Reset. Event recording only reads clocks and writes into the
	// fixed buffer — it never changes what the forward pass computes,
	// so traced and untraced passes are bit-identical.
	Ev *trace.Events
}

// Reset zeroes every accumulator.
func (ins *Instrumentation) Reset() { *ins = Instrumentation{} }

// lap adds the time since *mark to *acc and advances *mark, so
// consecutive stages share one clock read at each boundary.
//
//mnnfast:hotpath
func lap(mark *time.Time, acc *int64) {
	now := time.Now()
	*acc += now.Sub(*mark).Nanoseconds()
	*mark = now
}

// EmbeddedStory caches the per-hop embedded memories (M_IN, M_OUT) of
// one fixed story. Embedding depends only on the story sentences and
// their count — not on the question — so a serving session that answers
// several questions against an unchanged story can embed once and reuse
// the matrices, the serving-side analogue of the paper's embedding
// cache (§3.3). The matrices are read-only during ApplyInstrumented, so
// one EmbeddedStory may serve concurrent readers; invalidate (re-embed)
// whenever the story changes, since the temporal encoding bakes in the
// sentence count.
type EmbeddedStory struct {
	NS     int              // number of story sentences the cache was built for
	MemIn  []*tensor.Matrix // per hop: ns×d input memory
	MemOut []*tensor.Matrix // per hop: ns×d output memory

	// Index holds the per-hop IVF indices for approximate top-k
	// attention, built by Model.BuildStoryIndex after embedding. Empty
	// (or shorter than the hop count) means exact attention for the
	// missing hops. EmbedStoryInto truncates it: re-embedding moves the
	// rows, so any previous index is stale.
	Index []*sparse.TopKIndex
}

// EmbedStoryInto embeds ex's story into es, reusing es's buffers
// grow-only. Only ex.Sentences is consulted.
//
//mnnfast:hotpath
func (m *Model) EmbedStoryInto(ex Example, es *EmbeddedStory) {
	ns := len(ex.Sentences)
	if ns == 0 {
		panic("memnn: EmbedStoryInto on example with no story sentences")
	}
	if ns > m.Cfg.MaxSent {
		panic(fmt.Sprintf("memnn: story of %d sentences exceeds MaxSent %d", ns, m.Cfg.MaxSent))
	}
	hops, d := m.Cfg.Hops, m.Cfg.Dim
	if cap(es.MemIn) < hops {
		es.MemIn = make([]*tensor.Matrix, hops)
		es.MemOut = make([]*tensor.Matrix, hops)
	}
	es.MemIn, es.MemOut = es.MemIn[:hops], es.MemOut[:hops]
	es.NS = ns
	es.Index = es.Index[:0] // stale: the rows are about to move
	for k := 0; k < hops; k++ {
		in := growMat(es.MemIn[k], ns, d)
		out := growMat(es.MemOut[k], ns, d)
		es.MemIn[k], es.MemOut[k] = in, out
		ti := m.timeIdx(k)
		for i := 0; i < ns; i++ {
			m.encodeInto(m.embIn(k), ex.Sentences[i], m.temporalRow(m.TimeIn[ti], i, ns), in.Row(i))
			m.encodeInto(m.embOut(k), ex.Sentences[i], m.temporalRow(m.TimeOut[ti], i, ns), out.Row(i))
		}
	}
}

// ApplyInstrumented is ApplyInto with two optional extras: es, a cached
// EmbeddedStory whose matrices replace the per-call memory embedding
// (es.NS must match the example's sentence count), and ins, a per-stage
// time and skip-counter accumulator. Either may be nil. With es set,
// f.MemIn/f.MemOut are left untouched (the trainer's introspection of
// them does not apply to the cached inference path).
//
//mnnfast:hotpath
func (m *Model) ApplyInstrumented(ex Example, skipThreshold float32, f *Forward, es *EmbeddedStory, ins *Instrumentation) *Forward {
	return m.applyInto(ex, skipThreshold, f, es, ins, ExitPolicy{}, false)
}

// PredictInstrumented returns the argmax answer class using the cached
// embedded story and instrumentation plumbing of ApplyInstrumented.
//
//mnnfast:hotpath
func (m *Model) PredictInstrumented(ex Example, threshold float32, f *Forward, es *EmbeddedStory, ins *Instrumentation) int {
	return m.applyInto(ex, threshold, f, es, ins, ExitPolicy{}, false).Logits.ArgMax()
}
