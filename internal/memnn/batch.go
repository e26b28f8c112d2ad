package memnn

import (
	"fmt"
	"time"

	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
	"mnnfast/internal/trace"
)

// Batched inference: answer several questions in one forward pass,
// sharing every memory-row read across the questions that attend to it.
// This is the serving-side realization of the paper's batching argument
// (§4.1.2): with B questions in flight, each row of M_IN/M_OUT (and
// each row of the output projection W) is streamed from memory once per
// batch instead of once per question, so throughput stays flat as
// concurrency grows instead of degrading with redundant memory traffic.
//
// Bit-exactness contract: the batched pass performs exactly the same
// float32 operations in exactly the same order per question as the
// single-question path (applyInto with a cached EmbeddedStory) — both
// run attend, which steps through the same row chunks and applies the
// same kernels to each question's own state — and the same output
// projection. Only the loop nesting changes (chunks outer, questions
// inner), which affects locality, not results. The equivalence property
// test in batch_test.go pins this down to the bit level.

// BatchForward holds the per-question forward state and the grouping
// scratch of one batched predict. Buffers are reshaped grow-only and
// reused across calls of any shape; at steady state a serving loop that
// owns one BatchForward runs PredictBatchInto without allocating. It
// must not be shared between concurrent calls.
type BatchForward struct {
	fs []Forward // one per question

	// Grouping scratch: order is a permutation of the live questions
	// with questions that share an EmbeddedStory adjacent; groups holds
	// the end offset of each group within order, and ptrs the Forward of
	// each question of order (what attend takes).
	order   []int
	ptrs    []*Forward
	groups  []int
	grouped []bool

	// Early-exit state (see ExitPolicy): live holds the indices of
	// questions still hopping (ascending); exits records each
	// question's exit hop; full marks questions committed to the full
	// path by the fallback floor. gateP is the gate softmax scratch.
	live  []int
	exits []int
	full  []bool
	gateP tensor.Vector

	// Dispatch state of the current hop's group pass. Story groups are
	// the parallel unit: each touches only its own questions' state, so
	// groups run concurrently on the model's scheduler while every
	// per-question operation keeps its exact serial order — parallel
	// passes are bit-identical to serial ones. The closure is built once
	// per BatchForward so the steady-state dispatch allocates nothing.
	m       *Model
	stories []*EmbeddedStory
	hop     int
	skip    float32
	wskip   []int64 // per-worker skipped-row counters
	wrows   []int64 // per-worker considered-row counters
	wprobed []int64 // per-worker topk probed-row counters
	wcand   []int64 // per-worker topk surviving-candidate counters
	gfn     func(worker, lo, hi int)
}

// runGroup executes story group g's attention for the current hop as
// worker slot w, for every question of the group.
//
//mnnfast:hotpath
func (bf *BatchForward) runGroup(g, w int) {
	m, k := bf.m, bf.hop
	d := m.Cfg.Dim
	start := 0
	if g > 0 {
		start = bf.groups[g-1]
	}
	group := bf.order[start:bf.groups[g]]
	es := bf.stories[group[0]]
	in, outMem := es.MemIn[k], es.MemOut[k]

	if idx := m.topkIndex(es, k); idx != nil {
		// Approximate attention: per question, the exact operations of
		// the unbatched topk hop (probe, candidate top-k softmax,
		// ascending M_OUT gather) in the same serial order, so batched
		// and unbatched topk answers are bit-identical by construction.
		// Rows-outer sharing is the exact path's trick; the probe
		// already cuts the row traffic it exists to amortize.
		scr := sparse.GetProbeScratch()
		var skipped, probed, kept int64
		for _, q := range group {
			f := &bf.fs[q]
			c, ast := idx.Attend(f.U[k], m.topk.K, m.topk.NProbe, scr)
			p := growVec(f.P[k], ast.Kept)
			f.P[k] = p
			copy(p, c.Weights)
			f.O[k] = growVec(f.O[k], d)
			skipped += int64(c.WeightedSumGather(outMem, bf.skip, f.O[k]))
			probed += int64(ast.Probed)
			kept += int64(ast.Kept)
		}
		sparse.PutProbeScratch(scr)
		bf.wskip[w] += skipped
		bf.wrows[w] += kept
		bf.wprobed[w] += probed
		bf.wcand[w] += kept
		return
	}

	// Exact attention: one chunked pass over the story's rows shared by
	// the whole group (see attend). Linear-start passes keep the dense
	// per-question hop, which has no softmax to defer.
	skipped := 0
	if m.LinearAttention {
		for _, q := range group {
			skipped += m.attendDense(in, outMem, k, bf.skip, &bf.fs[q])
		}
	} else {
		skipped = attend(in, outMem, k, bf.skip, bf.ptrs[start:bf.groups[g]])
	}
	bf.wskip[w] += int64(skipped)
	bf.wrows[w] += int64(es.NS) * int64(len(group))
}

// Logits returns question i's answer logits from the last batched pass,
// for equivalence testing and introspection.
func (bf *BatchForward) Logits(i int) tensor.Vector { return bf.fs[i].Logits }

// ExitHop returns the number of hops question i actually executed in
// the last batched pass: Cfg.Hops normally, fewer when the confidence
// gate shed it between hops.
func (bf *BatchForward) ExitHop(i int) int { return bf.exits[i] }

// ensure reshapes the per-question state for a batch of n over w
// worker slots.
func (bf *BatchForward) ensure(n, w int) {
	if cap(bf.fs) < n {
		fs := make([]Forward, n)
		copy(fs, bf.fs[:cap(bf.fs)])
		bf.fs = fs
	}
	bf.fs = bf.fs[:n]
	if cap(bf.grouped) < n {
		bf.grouped = make([]bool, n)
		bf.live = make([]int, n)
		bf.exits = make([]int, n)
		bf.full = make([]bool, n)
	}
	bf.grouped = bf.grouped[:n]
	bf.live = bf.live[:n]
	bf.exits = bf.exits[:n]
	bf.full = bf.full[:n]
	for i := 0; i < n; i++ {
		bf.live[i] = i
		bf.full[i] = false
	}
	if cap(bf.wskip) < w {
		bf.wskip = make([]int64, w)
		bf.wrows = make([]int64, w)
		bf.wprobed = make([]int64, w)
		bf.wcand = make([]int64, w)
	}
	bf.wskip = bf.wskip[:w]
	bf.wrows = bf.wrows[:w]
	bf.wprobed = bf.wprobed[:w]
	bf.wcand = bf.wcand[:w]
	for i := 0; i < w; i++ {
		bf.wskip[i], bf.wrows[i] = 0, 0
		bf.wprobed[i], bf.wcand[i] = 0, 0
	}
	if bf.gfn == nil {
		//mnnfast:allow hotalloc gfn is built once per BatchForward and cached; every later ensure reuses it
		bf.gfn = func(worker, lo, hi int) {
			for g := lo; g < hi; g++ {
				bf.runGroup(g, worker)
			}
		}
	}
}

// group orders the live questions so those sharing an EmbeddedStory
// are adjacent (pointer identity — two sessions never share one
// cache). It is re-run after the gate sheds questions between hops, so
// the remaining hops dispatch over compacted story groups.
//
//mnnfast:hotpath allow=append the order/groups slices grow-only toward MaxBatch and then stay put
func (bf *BatchForward) group(stories []*EmbeddedStory, live []int) {
	bf.order, bf.ptrs = bf.order[:0], bf.ptrs[:0]
	bf.groups = bf.groups[:0]
	for _, q := range live {
		bf.grouped[q] = false
	}
	for i, q := range live {
		if bf.grouped[q] {
			continue
		}
		bf.order, bf.ptrs = append(bf.order, q), append(bf.ptrs, &bf.fs[q])
		for _, r := range live[i+1:] {
			if !bf.grouped[r] && stories[r] == stories[q] {
				bf.grouped[r] = true
				bf.order, bf.ptrs = append(bf.order, r), append(bf.ptrs, &bf.fs[r])
			}
		}
		bf.groups = append(bf.groups, len(bf.order))
	}
}

// PredictBatchInto answers every question in exs, writing the argmax
// answer class of question i into out[i]. stories[i] supplies question
// i's pre-embedded memories (see EmbedStoryInto); every entry must be
// non-nil with NS matching its example. Questions sharing an
// EmbeddedStory (pointer identity) share one pass over its rows.
//
//mnnfast:hotpath
func (m *Model) PredictBatchInto(exs []Example, skipThreshold float32, stories []*EmbeddedStory, bf *BatchForward, out []int) {
	m.PredictBatchInstrumented(exs, skipThreshold, ExitPolicy{}, stories, bf, nil, out)
}

// PredictBatchInstrumented is PredictBatchInto with an optional
// per-stage time and skip-counter accumulator covering the whole
// batch, and a confidence gate (see ExitPolicy; the zero policy is the
// plain batched pass, bit for bit). With the gate armed, questions
// whose confidence clears the threshold after a hop are shed between
// hops: they answer immediately from the gate's W·u projection, and
// the remaining hops dispatch over story groups rebuilt from the
// shrunken live set — the batch's attention cost tracks the questions
// still hopping, not the flush size. Read per-question exit hops with
// BatchForward.ExitHop.
//
//mnnfast:hotpath
func (m *Model) PredictBatchInstrumented(exs []Example, skipThreshold float32, policy ExitPolicy, stories []*EmbeddedStory, bf *BatchForward, ins *Instrumentation, out []int) {
	n := len(exs)
	if len(stories) != n || len(out) != n {
		panic(fmt.Sprintf("memnn: PredictBatch length mismatch exs=%d stories=%d out=%d", n, len(stories), len(out)))
	}
	if n == 0 {
		return
	}
	for i, es := range stories {
		if es == nil {
			panic(fmt.Sprintf("memnn: PredictBatch question %d has nil EmbeddedStory", i))
		}
		if es.NS != len(exs[i].Sentences) {
			panic(fmt.Sprintf("memnn: EmbeddedStory built for %d sentences applied to story of %d", es.NS, len(exs[i].Sentences)))
		}
	}
	hops, d := m.Cfg.Hops, m.Cfg.Dim
	bf.ensure(n, m.sch.Workers())
	live := bf.live
	for i := range bf.exits {
		bf.exits[i] = hops
	}
	bf.group(stories, live)
	bf.m, bf.stories, bf.skip = m, stories, skipThreshold
	gate, minH := policy.active(hops), policy.minHops()

	var mark time.Time
	var ev *trace.Events
	if ins != nil {
		mark = time.Now()
		ev = ins.Ev
	}

	// Question embeddings (per question — the B-table gathers touch
	// disjoint rows, nothing to share).
	qe := ev.Begin("embed-question", -1)
	for q := 0; q < n; q++ {
		f := &bf.fs[q]
		f.NS = stories[q].NS
		if cap(f.U) < hops+1 {
			f.U = make([]tensor.Vector, hops+1)
		}
		f.U = f.U[:hops+1]
		if cap(f.P) < hops {
			f.P = make([]tensor.Vector, hops)
			f.O = make([]tensor.Vector, hops)
		}
		f.P, f.O = f.P[:hops], f.O[:hops]
		f.U[0] = growVec(f.U[0], d)
		m.encodeInto(m.B, exs[q].Question, nil, f.U[0])
	}
	ev.End(qe)
	if ins != nil {
		lap(&mark, &ins.EmbedNS)
	}

	for k := 0; k < hops; k++ {
		he := ev.Begin("hop", -1)
		skip0, rows0 := sumInt64(bf.wskip), sumInt64(bf.wrows)
		probed0, cand0 := sumInt64(bf.wprobed), sumInt64(bf.wcand)

		// Story groups are independent within a hop (disjoint question
		// state), so they are the scheduler's work items: zero-skipping
		// makes group costs uneven, and workers that finish their groups
		// steal the stragglers' — see runGroup for the per-group body.
		bf.hop = k
		m.sch.RunEvents(ev, he, 0, len(bf.groups), 1, bf.gfn)

		// State update u' = u + o (adjacent) or u' = H·u + o
		// (layer-wise). H is model-global, so its rows are shared
		// across the still-live questions, not just within a story
		// group.
		for _, q := range live {
			f := &bf.fs[q]
			f.U[k+1] = growVec(f.U[k+1], d)
		}
		if m.Cfg.Tying == TyingLayerwise {
			for r := 0; r < d; r++ {
				hrow := m.H.Row(r)
				for _, q := range live {
					bf.fs[q].U[k+1][r] = tensor.Dot(hrow, bf.fs[q].U[k])
				}
			}
		} else {
			for _, q := range live {
				copy(bf.fs[q].U[k+1], bf.fs[q].U[k])
			}
		}
		for _, q := range live {
			bf.fs[q].U[k+1].AddInPlace(bf.fs[q].O[k])
		}
		ev.Annotate(he, "hop", int64(k))
		ev.Annotate(he, "skipped", sumInt64(bf.wskip)-skip0)
		ev.Annotate(he, "rows", sumInt64(bf.wrows)-rows0)
		if probed := sumInt64(bf.wprobed) - probed0; probed > 0 {
			ev.Annotate(he, "topk_probed", probed)
			ev.Annotate(he, "topk_kept", sumInt64(bf.wcand)-cand0)
		}
		ev.End(he)
		if ins != nil {
			lap(&mark, &ins.AttentionNS)
		}

		// Confidence gate: score every live, uncommitted question and
		// shed the ones that clear the threshold — their answer is the
		// gate's W·u projection (one tensor.Dot per answer row, the
		// exact operation of the final projection, so shed answers are
		// bit-identical to the same query exiting unbatched). The
		// remaining hops then run on story groups rebuilt from the
		// shrunken live set.
		if h := k + 1; gate && h >= minH && h < hops {
			ge := ev.Begin("gate", -1)
			shed := m.gateBatch(bf, live, policy, h)
			ev.Annotate(ge, "hop", int64(k))
			ev.Annotate(ge, "shed", int64(shed))
			ev.End(ge)
			if ins != nil {
				lap(&mark, &ins.GateNS)
			}
			if shed > 0 {
				w := 0
				for _, q := range live {
					if bf.exits[q] == hops {
						live[w] = q
						w++
					}
				}
				live = live[:w]
				if len(live) == 0 {
					break
				}
				bf.group(stories, live)
			}
		}
	}
	if ins != nil {
		// Per-worker counters fold deterministically: each group's
		// counts are fixed, and integer addition is order-free.
		for i := range bf.wskip {
			ins.SkippedRows += bf.wskip[i]
			ins.TotalRows += bf.wrows[i]
			ins.ProbedRows += bf.wprobed[i]
			ins.CandRows += bf.wcand[i]
		}
	}
	bf.m, bf.stories = nil, nil // do not pin caller data between batches

	// Output projection: W is model-global too — each of its rows is
	// read once for the whole batch, the largest cross-session saving.
	// Only the questions that ran all hops are projected here; shed
	// questions already hold their exit logits from the gate.
	oe := ev.Begin("output", -1)
	for _, q := range live {
		f := &bf.fs[q]
		f.Logits = growVec(f.Logits, m.Cfg.Answers)
	}
	for r := 0; r < m.Cfg.Answers; r++ {
		wrow := m.W.Row(r)
		for _, q := range live {
			bf.fs[q].Logits[r] = tensor.Dot(wrow, bf.fs[q].U[hops])
		}
	}
	ev.End(oe)
	if ins != nil {
		lap(&mark, &ins.OutputNS)
	}
	for q := 0; q < n; q++ {
		out[q] = bf.fs[q].Logits.ArgMax()
	}
}

// gateBatch scores every live, uncommitted question after hop h (state
// U[h], attention P[h-1]) and marks the ones clearing the policy
// threshold as exited (bf.exits[q] = h), leaving their Logits at the
// gate's W·u projection. A confidence below the fallback floor commits
// the question to the full path instead (no further gate projections).
// Returns the number of questions shed.
//
// Bit-exactness: the exit logits are computed rows-outer so each W row
// is read once for the whole candidate set, but per question that is
// one tensor.Dot per answer row in ascending order — exactly the
// serial MatVec of the unbatched gate (gateConfidence), so a question
// shed at hop h in a batch answers bit-identically to the same
// question exiting at hop h unbatched.
//
//mnnfast:hotpath
func (m *Model) gateBatch(bf *BatchForward, live []int, policy ExitPolicy, h int) int {
	k, answers := h-1, m.Cfg.Answers
	if policy.Metric != ExitAttnMax {
		for _, q := range live {
			if bf.full[q] {
				continue
			}
			f := &bf.fs[q]
			f.Logits = growVec(f.Logits, answers)
		}
		for r := 0; r < answers; r++ {
			wrow := m.W.Row(r)
			for _, q := range live {
				if bf.full[q] {
					continue
				}
				bf.fs[q].Logits[r] = tensor.Dot(wrow, bf.fs[q].U[h])
			}
		}
	}
	fb := policy.fallback()
	shed := 0
	for _, q := range live {
		if bf.full[q] {
			continue
		}
		f := &bf.fs[q]
		var conf float32
		if policy.Metric == ExitAttnMax {
			conf = f.attnPeak(k)
		} else {
			bf.gateP = growVec(bf.gateP, answers)
			copy(bf.gateP, f.Logits)
			tensor.Softmax(bf.gateP)
			conf = answerConfidence(policy.Metric, bf.gateP)
		}
		if conf >= policy.Threshold {
			if policy.Metric == ExitAttnMax {
				f.Logits = growVec(f.Logits, answers)
				tensor.MatVec(nil, m.W, f.U[h], f.Logits)
			}
			bf.exits[q] = h
			shed++
		} else if fb > 0 && conf < fb {
			bf.full[q] = true
		}
	}
	return shed
}

// sumInt64 folds a counter slice; used for per-hop skip deltas in the
// traced batch path.
//
//mnnfast:hotpath
func sumInt64(a []int64) int64 {
	var s int64
	for _, v := range a {
		s += v
	}
	return s
}
