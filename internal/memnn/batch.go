package memnn

import (
	"fmt"

	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
)

// The inference pass. One hop loop (infer) answers a batch of questions,
// sharing every memory-row read across the questions that attend to it:
// the serving-side realization of the paper's batching argument
// (§4.1.2) — with B questions in flight, each row of M_IN/M_OUT (and
// each row of H and of the output projection W) is streamed from memory
// once per batch instead of once per question, so throughput stays flat
// as concurrency grows instead of degrading with redundant memory
// traffic. A single question (ApplyGated, PredictGated, Predict) is the
// same pass over a batch of one.
//
// Bit-exactness contract: whatever the batch, each question's state
// sees exactly the same float32 operations in exactly the same order —
// attend steps through the same row chunks and applies the same kernels
// to each question's own state, and advance and project are one
// tensor.Dot per row per question. Batch composition only changes the
// loop nesting (chunks outer, questions inner), which affects locality,
// not results: a question answers bit-identically alone and in any
// batch, which batch_test.go and internal/equivtest pin to the bit.

// BatchForward holds the per-question forward state and the grouping
// scratch of the inference pass. Buffers are reshaped grow-only and
// reused across calls of any shape; at steady state a serving loop that
// owns one BatchForward runs PredictBatch without allocating. It must
// not be shared between concurrent calls.
type BatchForward struct {
	fs []Forward // one per question of a PredictBatch

	// live holds the questions still hopping, in caller order: all of
	// them until the gate sheds some (see ExitPolicy). order is live
	// permuted so that questions sharing an EmbeddedStory are adjacent,
	// and groups the end offset of each such group within order. cand is
	// the gate's candidate scratch.
	live, order, cand []*Forward
	groups            []int

	// Dispatch state of the current hop's group pass. Story groups are
	// the parallel unit: each touches only its own questions' state, so
	// groups run concurrently on the model's scheduler while every
	// per-question operation keeps its exact serial order — parallel
	// passes are bit-identical to serial ones. The closure is built once
	// per BatchForward so the steady-state dispatch allocates nothing.
	m      *Model
	hop    int
	skip   float32
	counts []hopCounts // per worker slot, drained after every hop
	gfn    func(worker, lo, hi int)
}

// hopCounts is the row accounting of one hop: weighted-sum rows skipped
// and considered, and under top-k the rows probed and kept.
type hopCounts struct{ skipped, rows, probed, kept int64 }

// add folds o into c.
//
//mnnfast:hotpath
func (c *hopCounts) add(o hopCounts) {
	c.skipped, c.rows = c.skipped+o.skipped, c.rows+o.rows
	c.probed, c.kept = c.probed+o.probed, c.kept+o.kept
}

// runGroup executes story group g's attention for the current hop as
// worker slot w, for every question of the group.
//
//mnnfast:hotpath
func (bf *BatchForward) runGroup(g, w int) {
	m, k := bf.m, bf.hop
	start := 0
	if g > 0 {
		start = bf.groups[g-1]
	}
	group := bf.order[start:bf.groups[g]]
	es := group[0].es
	in, out := es.MemIn[k], es.MemOut[k]

	c := hopCounts{rows: int64(es.NS) * int64(len(group))}
	if idx := m.topkIndex(es, k); idx != nil {
		// Approximate attention: probe the hop's IVF index, softmax only
		// the surviving candidates, gather only their M_OUT rows. P[k]
		// becomes the compact survivor distribution (ascending row
		// order), which is what the attnmax gate and the skip threshold
		// then see. Per question, serial and scratch-pooled, so top-k
		// answers do not depend on the batch either. Rows-outer sharing
		// is the exact path's trick; the probe already cuts the row
		// traffic it exists to amortize.
		scr := sparse.GetProbeScratch()
		for _, f := range group {
			cand, ast := idx.Attend(f.U[k], m.topk.K, m.topk.NProbe, scr)
			f.P[k] = growVec(f.P[k], ast.Kept)
			copy(f.P[k], cand.Weights)
			f.O[k] = growVec(f.O[k], in.Cols)
			c.skipped += int64(cand.WeightedSumGather(out, bf.skip, f.O[k]))
			c.probed += int64(ast.Probed)
			c.kept += int64(ast.Kept)
		}
		sparse.PutProbeScratch(scr)
		c.rows = c.kept
	} else if m.LinearAttention {
		// Linear-start passes keep the dense per-question hop: there is
		// no softmax to defer.
		for _, f := range group {
			c.skipped += int64(m.attendDense(in, out, k, bf.skip, f))
		}
	} else {
		// Exact attention: one chunked pass over the story's rows shared
		// by the whole group (see attend).
		c.skipped = int64(attend(in, out, k, bf.skip, group))
	}
	bf.counts[w].add(c)
}

// Logits returns question i's answer logits from the last PredictBatch,
// for equivalence testing and introspection.
func (bf *BatchForward) Logits(i int) tensor.Vector { return bf.fs[i].Logits }

// ExitHop returns the number of hops question i actually executed in
// the last PredictBatch: Cfg.Hops normally, fewer when the confidence
// gate shed it between hops.
func (bf *BatchForward) ExitHop(i int) int { return bf.fs[i].ExitHop }

// group orders the live questions so those sharing an EmbeddedStory
// are adjacent (pointer identity — two sessions never share one
// cache). It is re-run after the gate sheds questions between hops, so
// the remaining hops dispatch over compacted story groups.
//
//mnnfast:hotpath allow=append the order/groups slices grow-only toward MaxBatch and then stay put
func (bf *BatchForward) group() {
	bf.order, bf.groups = bf.order[:0], bf.groups[:0]
	for _, f := range bf.live {
		f.grouped = false
	}
	for i, f := range bf.live {
		if f.grouped {
			continue
		}
		bf.order = append(bf.order, f)
		for _, r := range bf.live[i+1:] {
			if !r.grouped && r.es == f.es {
				r.grouped = true
				bf.order = append(bf.order, r)
			}
		}
		bf.groups = append(bf.groups, len(bf.order))
	}
}

// PredictBatch answers every question in exs in one pass, writing the
// argmax answer class of question i into out[i]. stories[i] supplies
// question i's pre-embedded memories (see EmbedStoryInto); every entry
// must be non-nil with NS matching its example. Questions sharing an
// EmbeddedStory (pointer identity) share one pass over its rows. ins,
// when non-nil, accumulates the whole batch's stage times and row
// counters. With the gate armed (see ExitPolicy; the zero policy runs
// every hop), questions whose confidence clears the threshold after a
// hop are shed between hops: they answer immediately from the gate's
// W·u projection, and the remaining hops dispatch over story groups
// rebuilt from the shrunken live set — the batch's attention cost tracks
// the questions still hopping, not the flush size. Read per-question
// exit hops with BatchForward.ExitHop.
//
//mnnfast:hotpath allow=append live grows only toward MaxBatch
func (m *Model) PredictBatch(exs []Example, skipThreshold float32, policy ExitPolicy, stories []*EmbeddedStory, bf *BatchForward, ins *Instrumentation, out []int) {
	n := len(exs)
	if len(stories) != n || len(out) != n {
		panic(fmt.Sprintf("memnn: PredictBatch length mismatch exs=%d stories=%d out=%d", n, len(stories), len(out)))
	}
	if n == 0 {
		return
	}
	if cap(bf.fs) < n {
		fs := make([]Forward, n)
		copy(fs, bf.fs[:cap(bf.fs)])
		bf.fs = fs
	}
	bf.fs = bf.fs[:n]
	bf.live = bf.live[:0]
	for i := range bf.fs {
		if stories[i] == nil {
			panic(fmt.Sprintf("memnn: PredictBatch question %d has nil EmbeddedStory", i))
		}
		bf.live = append(bf.live, &bf.fs[i])
	}
	m.infer(exs, skipThreshold, policy, stories, bf, ins)
	for i := range bf.fs {
		out[i] = bf.fs[i].Logits.ArgMax()
		bf.fs[i].es = nil // do not pin caller data between batches
	}
}

// ApplyGated runs the inference pass for one question — a batch of one
// whose live question is the caller's f — and returns f with the answer
// in f.Logits and the hops actually run in f.ExitHop. es, when non-nil,
// supplies the story's pre-embedded memories (es.NS must match the
// example's sentence count); with es nil the pass embeds the story into
// f's own EmbeddedStory first, exactly as EmbedStoryInto and
// BuildStoryIndex would. ins, when non-nil, accumulates per-stage time
// and row counters. An armed policy exits early once its confidence
// score clears the threshold; the zero policy runs every hop.
//
//mnnfast:hotpath
func (m *Model) ApplyGated(ex Example, skipThreshold float32, policy ExitPolicy, f *Forward, es *EmbeddedStory, ins *Instrumentation) *Forward {
	if f.solo == nil {
		//mnnfast:allow hotalloc made once per Forward; every later pass reuses it
		f.solo = &BatchForward{live: make([]*Forward, 1)}
	}
	bf := f.solo
	bf.live = bf.live[:1]
	bf.live[0] = f
	exs, stories := [1]Example{ex}, [1]*EmbeddedStory{es}
	m.infer(exs[:], skipThreshold, policy, stories[:], bf, ins)
	f.es = nil
	return f
}

// PredictGated returns the argmax answer class of ApplyGated's pass.
//
//mnnfast:hotpath
func (m *Model) PredictGated(ex Example, skipThreshold float32, policy ExitPolicy, f *Forward, es *EmbeddedStory, ins *Instrumentation) int {
	return m.ApplyGated(ex, skipThreshold, policy, f, es, ins).Logits.ArgMax()
}

// infer is the inference pass over the questions bf.live (question q
// asks exs[q] over stories[q]) and the only inference hop loop in the
// package: embed the questions, then per hop attend by story group
// (runGroup), update the states (advance) and let the gate shed the
// confident (gate), then project the answers (project). A nil story is
// embedded into the question's own Forward first. Every stage is timed
// through ins (see Instrumentation.begin); a nil ins reads no clock.
// The pass allocates nothing at steady state.
//
//mnnfast:hotpath
func (m *Model) infer(exs []Example, skipThreshold float32, policy ExitPolicy, stories []*EmbeddedStory, bf *BatchForward, ins *Instrumentation) {
	var none Instrumentation
	if ins == nil {
		none.untimed, ins = true, &none
	}
	for q, f := range bf.live {
		if f.es = stories[q]; f.es == nil {
			st := ins.begin("embed-memory")
			f.es = &f.EmbeddedStory
			m.EmbedStoryInto(exs[q], f.es)
			m.BuildStoryIndex(f.es)
			ins.end(st, &ins.EmbedNS)
		} else if f.es.NS != len(exs[q].Sentences) {
			panic(fmt.Sprintf("memnn: EmbeddedStory built for %d sentences applied to story of %d", f.es.NS, len(exs[q].Sentences)))
		}
	}
	// Question embeddings (per question — the B-table gathers touch
	// disjoint rows, nothing to share).
	st := ins.begin("embed-question")
	for q, f := range bf.live {
		m.question(f, exs[q].Question)
	}
	ins.end(st, &ins.EmbedNS)

	bf.m, bf.skip = m, skipThreshold
	if w := m.sch.Workers(); len(bf.counts) != w {
		bf.counts = make([]hopCounts, w)
	}
	if bf.gfn == nil {
		//mnnfast:allow hotalloc gfn is built once per BatchForward and cached; every later pass reuses it
		bf.gfn = func(worker, lo, hi int) {
			for g := lo; g < hi; g++ {
				bf.runGroup(g, worker)
			}
		}
	}
	bf.group()

	hops := m.Cfg.Hops
	gated, minH := policy.active(hops), policy.minHops()
	for k := 0; k < hops && len(bf.live) > 0; k++ {
		// Story groups are independent within a hop (disjoint question
		// state), so they are the scheduler's work items: zero-skipping
		// makes group costs uneven, and workers that finish their groups
		// steal the stragglers' — see runGroup for the per-group body.
		st := ins.begin("hop")
		bf.hop = k
		clear(bf.counts)
		m.sch.RunEvents(ins.Ev, st.ev, 0, len(bf.groups), 1, bf.gfn)
		m.advance(k, bf.live)
		// Per-worker counters fold deterministically: each group's
		// counts are fixed, and integer addition is order-free.
		var c hopCounts
		for _, wc := range bf.counts {
			c.add(wc)
		}
		ins.count(st, k, c)
		ins.end(st, &ins.AttentionNS)

		// Confidence gate: score every live, uncommitted question and
		// shed the ones that clear the threshold; the remaining hops
		// then run on story groups rebuilt from the shrunken live set.
		// The gate writes only Logits and its scratch — never U, P, or
		// O — so a pass where it never fires is bit-identical to the
		// ungated pass (the final projection overwrites Logits).
		if h := k + 1; gated && h >= minH && h < hops {
			st := ins.begin("gate")
			shed := m.gate(bf, policy, h)
			if shed > 0 {
				n := 0
				for _, f := range bf.live {
					if f.ExitHop == hops {
						bf.live[n] = f
						n++
					}
				}
				bf.live = bf.live[:n]
				bf.group()
			}
			ins.Ev.Annotate(st.ev, "hop", int64(k))
			ins.Ev.Annotate(st.ev, "shed", int64(shed))
			ins.end(st, &ins.GateNS)
		}
	}

	// Output projection: only the questions that ran all hops are
	// projected here; shed questions already hold their exit logits
	// from the gate.
	st = ins.begin("output")
	m.project(hops, bf.live)
	ins.end(st, &ins.OutputNS)
}

// gate scores every live, uncommitted question after hop h (state U[h],
// attention of hop h-1) and sheds the ones clearing the policy
// threshold: ExitHop = h, Logits = W·U[h]. A confidence below the
// fallback floor commits the question to the full path instead (no
// further gate projections). Returns the number of questions shed.
//
// The answer metrics score softmax(W·U[h]), so they project every
// candidate first; the attention metric reads the hop's peak weight and
// pays the projection only for the questions that exit. Either way the
// exit logits come from project, the operation of the final output, so
// a question shed at hop h answers bit-identically in any batch.
//
//mnnfast:hotpath allow=append cand grows only toward the batch size
func (m *Model) gate(bf *BatchForward, policy ExitPolicy, h int) (shed int) {
	cand := bf.cand[:0]
	for _, f := range bf.live {
		if !f.full {
			cand = append(cand, f)
		}
	}
	bf.cand = cand
	if policy.Metric != ExitAttnMax {
		m.project(h, cand)
	}
	fb := policy.fallback()
	fired := cand[:0] // filters cand in place: writes trail reads
	for _, f := range cand {
		var conf float32
		if policy.Metric == ExitAttnMax {
			conf = f.attnPeak(h - 1)
		} else {
			f.gateP = growVec(f.gateP, len(f.Logits))
			copy(f.gateP, f.Logits)
			tensor.Softmax(f.gateP)
			conf = answerConfidence(policy.Metric, f.gateP)
		}
		if conf >= policy.Threshold {
			f.ExitHop = h
			fired = append(fired, f)
		} else if fb > 0 && conf < fb {
			f.full = true
		}
	}
	if policy.Metric == ExitAttnMax {
		m.project(h, fired)
	}
	return len(fired)
}
