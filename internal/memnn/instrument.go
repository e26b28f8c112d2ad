package memnn

import (
	"fmt"

	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
	"mnnfast/internal/trace"
)

// Instrumentation accumulates per-stage wall-clock time and
// zero-skipping row counters across inference passes. It is plain data:
// accumulating into it costs two clock reads per stage and a handful
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

	// Ev, when non-nil, receives one trace event per stage
	// (embed-memory/embed-question/hop/gate/output, plus the scheduler's
	// per-worker events under each hop), stamped by the very clock reads
	// that feed the *NS accumulators, with the hop's row counts as
	// annotations. Reset nils it; callers re-attach their buffer after
	// each Reset. Event recording only reads clocks and writes into the
	// fixed buffer — it never changes what the pass computes, so traced
	// and untraced passes are bit-identical.
	Ev *trace.Events

	// untimed marks the stand-in infer uses when its caller passes no
	// Instrumentation: stages read no clock.
	untimed bool
}

// Reset zeroes every accumulator.
func (ins *Instrumentation) Reset() { *ins = Instrumentation{} }

// stage is one open stage of a pass: the clock read that opened it and
// the trace event it opened (-1 when untraced).
type stage struct {
	t0 int64
	ev int32
}

// begin opens the stage called name. Its one clock read both stamps the
// stage's trace event and is where end measures from.
//
//mnnfast:hotpath
func (ins *Instrumentation) begin(name string) stage {
	if ins.untimed {
		return stage{ev: -1}
	}
	now := trace.Now()
	return stage{now, ins.Ev.BeginAt(name, -1, now)}
}

// end closes s: its one clock read both ends the stage's trace event and
// adds the stage's duration to acc, one of ins's *NS accumulators.
//
//mnnfast:hotpath
func (ins *Instrumentation) end(s stage, acc *int64) {
	if ins.untimed {
		return
	}
	now := trace.Now()
	ins.Ev.EndAt(s.ev, now)
	*acc += now - s.t0
}

// count records hop k's row accounting, on the hop's trace event and in
// the row counters.
//
//mnnfast:hotpath
func (ins *Instrumentation) count(s stage, k int, c hopCounts) {
	ins.Ev.Annotate(s.ev, "hop", int64(k))
	ins.Ev.Annotate(s.ev, "skipped", c.skipped)
	ins.Ev.Annotate(s.ev, "rows", c.rows)
	if c.probed > 0 {
		ins.Ev.Annotate(s.ev, "topk_probed", c.probed)
		ins.Ev.Annotate(s.ev, "topk_kept", c.kept)
	}
	ins.SkippedRows += c.skipped
	ins.TotalRows += c.rows
	ins.ProbedRows += c.probed
	ins.CandRows += c.kept
}

// EmbeddedStory caches the per-hop embedded memories (M_IN, M_OUT) of
// one fixed story. Embedding depends only on the story sentences and
// their count — not on the question — so a serving session that answers
// several questions against an unchanged story can embed once and reuse
// the matrices, the serving-side analogue of the paper's embedding
// cache (§3.3). The matrices are read-only during a pass, so one
// EmbeddedStory may serve concurrent readers; invalidate (re-embed)
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

	// bagRow is EmbedStoryInto's scratch: per embedding table, the row
	// that holds the table's bag of words for the sentence at hand.
	bagRow []tensor.Vector
}

// EmbedStoryInto embeds ex's story into es, reusing es's buffers
// grow-only. Only ex.Sentences is consulted.
//
// A memory row is its table's bag of words plus its temporal row, and
// under adjacent tying hop k's output table is hop k+1's input table
// (A^{k+1} = C^k), so a sentence has Hops+1 distinct bags, not 2·Hops
// (2 under layer-wise tying). Per sentence the pass sums each distinct
// bag once, into the first row that needs it, copies it into the other
// rows of the same table, and then adds every row's temporal row. Each
// element sees the same additions in the same order as encoding its row
// on its own, so sharing the bags changes no bit.
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
		es.MemIn[k] = growMat(es.MemIn[k], ns, d)
		es.MemOut[k] = growMat(es.MemOut[k], ns, d)
	}
	es.bagRow = growVecs(es.bagRow, len(m.Emb))
	for i, words := range ex.Sentences {
		clear(es.bagRow)
		for k := 0; k < hops; k++ {
			m.bagInto(es.bagRow, m.inTable(k), words, es.MemIn[k].Row(i))
			m.bagInto(es.bagRow, m.outTable(k), words, es.MemOut[k].Row(i))
		}
		for k := 0; k < hops; k++ {
			ti := m.timeIdx(k)
			es.MemIn[k].Row(i).AddInPlace(m.temporalRow(m.TimeIn[ti], i, ns))
			es.MemOut[k].Row(i).AddInPlace(m.temporalRow(m.TimeOut[ti], i, ns))
		}
	}
}

// bagInto writes table e's bag of words into dst: summed the first time
// the sentence needs it (bagRow[e] then remembers the row), copied from
// that row after.
//
//mnnfast:hotpath
func (m *Model) bagInto(bagRow []tensor.Vector, e int, words []int, dst tensor.Vector) {
	if bagRow[e] == nil {
		m.encodeInto(m.Emb[e], words, dst)
		bagRow[e] = dst
		return
	}
	copy(dst, bagRow[e])
}
