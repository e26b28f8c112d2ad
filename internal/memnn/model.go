package memnn

import (
	"fmt"
	"math/rand"
	"time"

	"mnnfast/internal/sched"
	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
	"mnnfast/internal/trace"
)

// Tying selects the weight-sharing scheme between hops (Sukhbaatar et
// al. §2.2).
type Tying int

// Weight-tying schemes.
const (
	// TyingAdjacent: the memory-input embedding of hop k+1 is the
	// memory-output embedding of hop k (A^{k+1} = C^k), and the
	// internal state updates as u' = u + o.
	TyingAdjacent Tying = iota
	// TyingLayerwise: one A and one C shared by every hop (RNN-like),
	// with a learned linear map H on the internal state:
	// u' = H·u + o.
	TyingLayerwise
)

// String names the scheme.
//
//mnnfast:coldpath
func (t Tying) String() string {
	switch t {
	case TyingAdjacent:
		return "adjacent"
	case TyingLayerwise:
		return "layerwise"
	}
	return fmt.Sprintf("tying(%d)", int(t))
}

// Config describes a K-hop end-to-end memory network.
type Config struct {
	Dim     int     // ed, embedding dimension
	Hops    int     // K, number of memory hops
	Vocab   int     // V, vocabulary size
	Answers int     // number of answer classes
	MaxSent int     // ns capacity, sizes the temporal encoding tables
	InitStd float32 // weight init stddev (0 → 0.1, the paper's default)
	// Position selects position encoding (PE) for sentence embeddings
	// instead of plain bag-of-words, preserving word order (§4.1 of
	// the MemN2N paper; the MnnFast paper's §2.1 footnote).
	Position bool
	// Tying selects the weight-sharing scheme; zero value is adjacent.
	Tying Tying
}

func (c Config) validate() error {
	switch {
	case c.Dim < 1:
		return fmt.Errorf("memnn: Dim = %d, want >= 1", c.Dim)
	case c.Hops < 1:
		return fmt.Errorf("memnn: Hops = %d, want >= 1", c.Hops)
	case c.Vocab < 1:
		return fmt.Errorf("memnn: Vocab = %d, want >= 1", c.Vocab)
	case c.Answers < 1:
		return fmt.Errorf("memnn: Answers = %d, want >= 1", c.Answers)
	case c.MaxSent < 1:
		return fmt.Errorf("memnn: MaxSent = %d, want >= 1", c.MaxSent)
	case c.Tying != TyingAdjacent && c.Tying != TyingLayerwise:
		return fmt.Errorf("memnn: unknown tying scheme %d", int(c.Tying))
	}
	return nil
}

// Model holds the learned parameters of a memory network. With adjacent
// tying, Emb holds Hops+1 embedding matrices (A_k = Emb[k-1],
// C_k = Emb[k]) and TimeIn/TimeOut hold one temporal table per hop.
// With layer-wise tying, Emb holds exactly {A, C}, the temporal tables
// are shared across hops (length 1), and H maps the internal state
// between hops. The question embedding B is always separate, and W
// maps the final internal state to answer logits.
type Model struct {
	Cfg     Config
	B       *tensor.Matrix   // V×d, question embedding
	Emb     []*tensor.Matrix // V×d embedding matrices (see Tying)
	TimeIn  []*tensor.Matrix // MaxSent×d temporal encodings
	TimeOut []*tensor.Matrix // MaxSent×d temporal encodings
	H       *tensor.Matrix   // d×d state map (layer-wise tying only)
	W       *tensor.Matrix   // Answers×d, final projection

	// LinearAttention disables the attention softmax (raw inner
	// products become weights) — the "linear start" training phase of
	// the MemN2N paper, which helps escape poor local minima. The
	// trainer toggles it; inference normally leaves it false.
	LinearAttention bool

	// sch distributes a batched pass's story groups over persistent
	// workers (SetParallel). nil runs serially; either way the outputs
	// are bit-identical — groups touch disjoint per-question state and
	// every per-question operation keeps its order.
	sch *sched.Scheduler

	// topk configures approximate top-k attention (SetTopK, topk.go).
	// The zero value keeps every hop exact.
	topk TopKConfig
}

// SetParallel routes the batched predict path's per-story-group work
// over pool's persistent workers through a work-stealing scheduler.
// A nil pool (or never calling SetParallel) keeps the pass serial.
// Parallel and serial passes are bit-identical, so this is purely a
// throughput knob. Not safe to call concurrently with predictions.
//
//mnnfast:coldpath
func (m *Model) SetParallel(pool *tensor.Pool) {
	m.sch = sched.New(pool)
}

// Scheduler exposes the batched-predict scheduler for observability
// (per-worker chunk/steal/idle counters); nil unless SetParallel was
// called.
//
//mnnfast:coldpath
func (m *Model) Scheduler() *sched.Scheduler { return m.sch }

// NewModel initializes a model with N(0, InitStd²) weights from rng.
func NewModel(cfg Config, rng *rand.Rand) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	std := cfg.InitStd
	if std == 0 {
		std = 0.1
	}
	m := &Model{Cfg: cfg}
	m.B = tensor.GaussianMatrix(rng, cfg.Vocab, cfg.Dim, std)
	nEmb, nTime := cfg.Hops+1, cfg.Hops
	if cfg.Tying == TyingLayerwise {
		nEmb, nTime = 2, 1
		m.H = tensor.GaussianMatrix(rng, cfg.Dim, cfg.Dim, std)
	}
	m.Emb = make([]*tensor.Matrix, nEmb)
	for i := range m.Emb {
		m.Emb[i] = tensor.GaussianMatrix(rng, cfg.Vocab, cfg.Dim, std)
	}
	m.TimeIn = make([]*tensor.Matrix, nTime)
	m.TimeOut = make([]*tensor.Matrix, nTime)
	for k := 0; k < nTime; k++ {
		m.TimeIn[k] = tensor.GaussianMatrix(rng, cfg.MaxSent, cfg.Dim, std)
		m.TimeOut[k] = tensor.GaussianMatrix(rng, cfg.MaxSent, cfg.Dim, std)
	}
	m.W = tensor.GaussianMatrix(rng, cfg.Answers, cfg.Dim, std)
	return m, nil
}

// embIn returns the memory-input embedding of hop k.
func (m *Model) embIn(k int) *tensor.Matrix {
	if m.Cfg.Tying == TyingLayerwise {
		return m.Emb[0]
	}
	return m.Emb[k]
}

// embOut returns the memory-output embedding of hop k.
func (m *Model) embOut(k int) *tensor.Matrix {
	if m.Cfg.Tying == TyingLayerwise {
		return m.Emb[1]
	}
	return m.Emb[k+1]
}

// timeIdx maps hop k to a temporal-table index.
func (m *Model) timeIdx(k int) int {
	if m.Cfg.Tying == TyingLayerwise {
		return 0
	}
	return k
}

// Forward holds every intermediate of one example's forward pass; the
// trainer reuses it for backprop and the evaluation code reads the
// per-hop attention vectors from it.
type Forward struct {
	NS     int              // number of story sentences
	U      []tensor.Vector  // Hops+1 internal states (U[0] = question)
	MemIn  []*tensor.Matrix // per hop: ns×d input memory (embedded)
	MemOut []*tensor.Matrix // per hop: ns×d output memory (embedded)
	P      []tensor.Vector  // per hop: attention weights (see below)
	O      []tensor.Vector  // per hop: response vector
	Logits tensor.Vector    // answer logits (length Answers)

	// ExitHop is the number of hops the pass actually executed: Hops
	// normally, fewer when a confidence gate fired (see ExitPolicy).
	ExitHop int

	// P[k] has length ns only on the dense path (Apply, ApplyInto and
	// linear-start passes; see attendDense). Under top-k attention it is
	// the compact survivor distribution, and the exact inference hop
	// (attend) leaves it empty: it never materialises the weights and
	// keeps only its lazy-softmax state here — the running maximum and
	// sum of the hop in flight, the chunk scratch, and the finished
	// hop's largest attention weight.
	max, sum, peak float32
	t              tensor.Vector

	// gateP is the gate's softmax scratch (length Answers); it never
	// feeds back into the forward state.
	gateP tensor.Vector
}

// posWeight returns the position-encoding factor l_kj for the j-th of J
// words (1-based) at embedding dimension k (0-based) of d:
//
//	l_kj = (1 - j/J) - ((k+1)/d)·(1 - 2j/J)
func posWeight(j, bigJ, k, d int) float32 {
	fj, fJ := float32(j), float32(bigJ)
	return (1 - fj/fJ) - (float32(k+1)/float32(d))*(1-2*fj/fJ)
}

// encodeInto accumulates the sentence embedding of word IDs from table
// emb plus the temporal vector into dst, with optional position
// encoding.
//
//mnnfast:hotpath
func (m *Model) encodeInto(emb *tensor.Matrix, words []int, temporal tensor.Vector, dst tensor.Vector) {
	dst.Zero()
	if m.Cfg.Position {
		bigJ := 0
		for _, w := range words {
			if w != 0 {
				bigJ++
			}
		}
		j := 0
		for _, w := range words {
			if w == 0 {
				continue
			}
			j++
			row := emb.Row(w)
			for k := range dst {
				dst[k] += posWeight(j, bigJ, k, m.Cfg.Dim) * row[k]
			}
		}
	} else {
		for _, w := range words {
			if w == 0 {
				continue
			}
			tensor.Axpy(1, emb.Row(w), dst)
		}
	}
	if temporal != nil {
		dst.AddInPlace(temporal)
	}
}

// temporalRow returns the temporal-encoding vector for sentence i of ns:
// the most recent sentence uses row 0, matching how stories are trimmed
// to the most recent MaxSent sentences.
func (m *Model) temporalRow(table *tensor.Matrix, i, ns int) tensor.Vector {
	return table.Row(ns - 1 - i)
}

// Apply runs the forward pass for one example and returns all
// intermediates, the per-hop attention vectors P included — the form
// the trainer and the evaluation reports need. The zero-skip threshold,
// if positive, zeroes attention weights below it before the weighted
// sum (the paper's Algorithm 1); the skipped mass is NOT renormalized,
// matching the paper's FPGA implementation which accumulates every exp
// into P_sum but skips only the weighted-sum work.
func (m *Model) Apply(ex Example, skipThreshold float32) *Forward {
	return m.ApplyInto(ex, skipThreshold, new(Forward))
}

// growVec returns a length-n vector reusing v's storage when possible.
func growVec(v tensor.Vector, n int) tensor.Vector {
	if cap(v) < n {
		return tensor.NewVector(n)
	}
	return v[:n]
}

// growMat reshapes mat to rows×cols, reusing its storage when possible.
func growMat(mat *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if mat == nil {
		return tensor.NewMatrix(rows, cols)
	}
	n := rows * cols
	if cap(mat.Data) < n {
		mat.Data = make([]float32, n)
	}
	mat.Data = mat.Data[:n]
	mat.Rows, mat.Cols = rows, cols
	return mat
}

// ApplyInto is Apply with a caller-provided Forward whose buffers are
// reshaped (grow-only) and reused. A serving loop that owns one Forward
// per goroutine runs the whole forward pass without allocating once the
// buffers reach steady-state size. f must not be shared between
// concurrent calls.
//
//mnnfast:hotpath
func (m *Model) ApplyInto(ex Example, skipThreshold float32, f *Forward) *Forward {
	return m.applyInto(ex, skipThreshold, f, nil, nil, ExitPolicy{}, true)
}

// applyInto is the forward pass shared by every entry point. es, when
// non-nil, supplies pre-embedded memories for the story (skipping the
// per-hop encode); ins, when non-nil, accumulates per-stage wall time
// and zero-skip counters; policy, when armed, gates each eligible hop
// on a confidence score and exits early when it clears the threshold
// (see exit.go for the determinism contract); dense materialises the
// attention vectors in f.P (attendDense) where the inference entry
// points run the column-chunked lazy-softmax hop (attend). All paths
// stay allocation-free at steady state.
//
//mnnfast:hotpath
func (m *Model) applyInto(ex Example, skipThreshold float32, f *Forward, es *EmbeddedStory, ins *Instrumentation, policy ExitPolicy, dense bool) *Forward {
	ns := len(ex.Sentences)
	if ns == 0 {
		panic("memnn: Apply on example with no story sentences")
	}
	if ns > m.Cfg.MaxSent {
		panic(fmt.Sprintf("memnn: story of %d sentences exceeds MaxSent %d", ns, m.Cfg.MaxSent))
	}
	if es != nil && es.NS != ns {
		panic(fmt.Sprintf("memnn: EmbeddedStory built for %d sentences applied to story of %d", es.NS, ns))
	}
	hops, d := m.Cfg.Hops, m.Cfg.Dim
	f.NS = ns
	if cap(f.U) < hops+1 {
		f.U = make([]tensor.Vector, hops+1)
	}
	f.U = f.U[:hops+1]
	if cap(f.MemIn) < hops {
		f.MemIn = make([]*tensor.Matrix, hops)
		f.MemOut = make([]*tensor.Matrix, hops)
		f.P = make([]tensor.Vector, hops)
		f.O = make([]tensor.Vector, hops)
	}
	f.MemIn, f.MemOut = f.MemIn[:hops], f.MemOut[:hops]
	f.P, f.O = f.P[:hops], f.O[:hops]
	f.ExitHop = hops
	gate, minH := policy.active(hops), policy.minHops()

	var mark time.Time
	var ev *trace.Events
	if ins != nil {
		mark = time.Now()
		ev = ins.Ev
	}

	// Question embedding.
	qe := ev.Begin("embed-question", -1)
	f.U[0] = growVec(f.U[0], d)
	m.encodeInto(m.B, ex.Question, nil, f.U[0])
	ev.End(qe)
	if ins != nil {
		lap(&mark, &ins.EmbedNS)
	}

	for k := 0; k < hops; k++ {
		var in, out *tensor.Matrix
		if es != nil {
			in, out = es.MemIn[k], es.MemOut[k]
		} else {
			me := ev.Begin("embed-memory", -1)
			in = growMat(f.MemIn[k], ns, d)
			out = growMat(f.MemOut[k], ns, d)
			f.MemIn[k], f.MemOut[k] = in, out
			ti := m.timeIdx(k)
			for i := 0; i < ns; i++ {
				m.encodeInto(m.embIn(k), ex.Sentences[i], m.temporalRow(m.TimeIn[ti], i, ns), in.Row(i))
				m.encodeInto(m.embOut(k), ex.Sentences[i], m.temporalRow(m.TimeOut[ti], i, ns), out.Row(i))
			}
			ev.Annotate(me, "hop", int64(k))
			ev.End(me)
			if ins != nil {
				lap(&mark, &ins.EmbedNS)
			}
		}
		he := ev.Begin("hop", -1)

		skipped, rows := 0, ns
		if idx := m.topkIndex(es, k); idx != nil {
			// Approximate attention: probe the hop's IVF index, softmax
			// only the surviving candidates, gather only their M_OUT
			// rows. f.P[k] becomes the compact survivor distribution
			// (ascending row order), which is what the attnmax gate and
			// the skip threshold then see. Per-question, serial, and
			// scratch-pooled: bit-identical at any parallelism or batch
			// composition, allocation-free at steady state.
			scr := sparse.GetProbeScratch()
			c, ast := idx.Attend(f.U[k], m.topk.K, m.topk.NProbe, scr)
			f.P[k] = growVec(f.P[k], ast.Kept)
			copy(f.P[k], c.Weights)
			f.O[k] = growVec(f.O[k], d)
			skipped = c.WeightedSumGather(out, skipThreshold, f.O[k])
			sparse.PutProbeScratch(scr)
			rows = ast.Kept
			ev.Annotate(he, "topk_probed", int64(ast.Probed))
			ev.Annotate(he, "topk_kept", int64(ast.Kept))
			if ins != nil {
				ins.ProbedRows += int64(ast.Probed)
				ins.CandRows += int64(ast.Kept)
			}
		} else if dense || m.LinearAttention {
			skipped = m.attendDense(in, out, k, skipThreshold, f)
		} else {
			one := [1]*Forward{f}
			skipped = attend(in, out, k, skipThreshold, one[:])
		}

		// Output calculation input: u' = u + o (adjacent) or
		// u' = H·u + o (layer-wise).
		u := growVec(f.U[k+1], d)
		f.U[k+1] = u
		if m.Cfg.Tying == TyingLayerwise {
			tensor.MatVec(nil, m.H, f.U[k], u)
		} else {
			copy(u, f.U[k])
		}
		u.AddInPlace(f.O[k])
		ev.Annotate(he, "hop", int64(k))
		ev.Annotate(he, "skipped", int64(skipped))
		ev.Annotate(he, "rows", int64(rows))
		ev.End(he)
		if ins != nil {
			ins.SkippedRows += int64(skipped)
			ins.TotalRows += int64(rows)
			lap(&mark, &ins.AttentionNS)
		}

		// Confidence gate: after an eligible hop, score the state and
		// exit early when the score clears the threshold. The gate
		// writes only f.Logits and the gate scratch — never U, P, or O
		// — so a pass where it never fires is bit-identical to the
		// ungated pass (the final projection overwrites f.Logits).
		if h := k + 1; gate && h >= minH && h < hops {
			ge := ev.Begin("gate", -1)
			conf := m.gateConfidence(policy.Metric, f, k)
			fired := conf >= policy.Threshold
			var fv int64
			if fired {
				fv = 1
			}
			ev.Annotate(ge, "hop", int64(k))
			ev.Annotate(ge, "exit", fv)
			ev.End(ge)
			if ins != nil {
				lap(&mark, &ins.GateNS)
			}
			if fired {
				// Answer from the current state. The answer metrics
				// already computed W·u into f.Logits; the attention
				// metric pays the projection only on exit.
				if policy.Metric == ExitAttnMax {
					f.Logits = growVec(f.Logits, m.Cfg.Answers)
					tensor.MatVec(nil, m.W, f.U[h], f.Logits)
					if ins != nil {
						lap(&mark, &ins.OutputNS)
					}
				}
				f.ExitHop = h
				return f
			}
			if fb := policy.fallback(); fb > 0 && conf < fb {
				gate = false // hard question: commit to the full path
			}
		}
	}

	oe := ev.Begin("output", -1)
	f.Logits = growVec(f.Logits, m.Cfg.Answers)
	tensor.MatVec(nil, m.W, f.U[hops], f.Logits)
	ev.End(oe)
	if ins != nil {
		lap(&mark, &ins.OutputNS)
	}
	return f
}

// Predict returns the argmax answer class for the example.
func (m *Model) Predict(ex Example) int {
	return m.PredictSkip(ex, 0)
}

// PredictSkip returns the argmax answer class with zero-skipping applied
// at the given threshold.
func (m *Model) PredictSkip(ex Example, threshold float32) int {
	return m.PredictSkipInto(ex, threshold, new(Forward))
}

// PredictSkipInto is PredictSkip with a caller-provided Forward reused
// across calls — the allocation-free serving path (see ApplyInto).
//
//mnnfast:hotpath
func (m *Model) PredictSkipInto(ex Example, threshold float32, f *Forward) int {
	return m.applyInto(ex, threshold, f, nil, nil, ExitPolicy{}, false).Logits.ArgMax()
}

// NumParams returns the total trainable parameter count.
func (m *Model) NumParams() int {
	n := len(m.B.Data) + len(m.W.Data)
	for _, e := range m.Emb {
		n += len(e.Data)
	}
	for k := range m.TimeIn {
		n += len(m.TimeIn[k].Data) + len(m.TimeOut[k].Data)
	}
	if m.H != nil {
		n += len(m.H.Data)
	}
	return n
}
