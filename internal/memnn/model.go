package memnn

import (
	"fmt"
	"math/rand"

	"mnnfast/internal/sched"
	"mnnfast/internal/tensor"
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

// inTable returns the index in Emb of hop k's memory-input embedding.
func (m *Model) inTable(k int) int {
	if m.Cfg.Tying == TyingLayerwise {
		return 0
	}
	return k
}

// outTable returns the index in Emb of hop k's memory-output embedding.
// Under adjacent tying it is hop k+1's input table (A^{k+1} = C^k).
func (m *Model) outTable(k int) int {
	if m.Cfg.Tying == TyingLayerwise {
		return 1
	}
	return k + 1
}

// timeIdx maps hop k to a temporal-table index.
func (m *Model) timeIdx(k int) int {
	if m.Cfg.Tying == TyingLayerwise {
		return 0
	}
	return k
}

// Forward is one question's forward-pass state: the hop recurrence's
// internal states, responses and answer logits. The dense pass (Apply)
// also leaves the attention vectors in P for the trainer's backprop and
// the evaluation reports; the inference pass (ApplyGated, PredictGated,
// PredictBatch — see infer) keeps only its lazy-softmax state. Buffers
// are reshaped grow-only, so a serving loop that owns one Forward per
// goroutine runs pass after pass without allocating. A Forward must not
// be shared between concurrent passes.
type Forward struct {
	// EmbeddedStory is the pass's own embedding of the example's story
	// (NS, MemIn, MemOut, and the top-k Index when that mode is on).
	// Apply always fills it — the trainer differentiates through it —
	// and the inference pass fills it when the caller supplies no cached
	// story; over a cached story it is left untouched.
	EmbeddedStory

	U      []tensor.Vector // Hops+1 internal states (U[0] = question)
	P      []tensor.Vector // per hop: attention weights (see below)
	O      []tensor.Vector // per hop: response vector
	Logits tensor.Vector   // answer logits (length Answers)

	// ExitHop is the number of hops the pass actually executed: Hops
	// normally, fewer when a confidence gate fired (see ExitPolicy).
	ExitHop int

	// P[k] has length ns only on the dense path (Apply and linear-start
	// passes; see attendDense). Under top-k attention it is the compact
	// survivor distribution, and the exact inference hop (attend) leaves
	// it empty: it never materialises the weights and keeps only its
	// lazy-softmax state here — the running maximum and sum of the hop
	// in flight, the chunk scratch, and the finished hop's largest
	// attention weight.
	max, sum, peak float32
	t              tensor.Vector

	// gateP is the gate's softmax scratch (length Answers); it never
	// feeds back into the forward state.
	gateP tensor.Vector

	// What infer keeps per question while a pass is in flight: the story
	// the question attends over, whether group has placed it, and
	// whether the gate's fallback floor committed it to the full path.
	es            *EmbeddedStory
	grouped, full bool

	// solo is the batch of one that ApplyGated runs this Forward through,
	// made on first use.
	solo *BatchForward
}

// posWeight returns the position-encoding factor l_kj for the j-th of J
// words (1-based) at embedding dimension k (0-based) of d:
//
//	l_kj = (1 - j/J) - ((k+1)/d)·(1 - 2j/J)
func posWeight(j, bigJ, k, d int) float32 {
	fj, fJ := float32(j), float32(bigJ)
	return (1 - fj/fJ) - (float32(k+1)/float32(d))*(1-2*fj/fJ)
}

// encodeInto writes the sentence embedding of word IDs from table emb
// into dst: the bag of words Σ_w emb[w], or with position encoding
// Σ_j l_j ∘ emb[w_j], added in word order. Pad IDs (0) are skipped.
//
//mnnfast:hotpath
func (m *Model) encodeInto(emb *tensor.Matrix, words []int, dst tensor.Vector) {
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
		return
	}
	for _, w := range words {
		if w == 0 {
			continue
		}
		tensor.Axpy(1, emb.Row(w), dst)
	}
}

// temporalRow returns the temporal-encoding vector for sentence i of ns:
// the most recent sentence uses row 0, matching how stories are trimmed
// to the most recent MaxSent sentences.
func (m *Model) temporalRow(table *tensor.Matrix, i, ns int) tensor.Vector {
	return table.Row(ns - 1 - i)
}

// growVec returns a length-n vector reusing v's storage when possible.
func growVec(v tensor.Vector, n int) tensor.Vector {
	if cap(v) < n {
		return tensor.NewVector(n)
	}
	return v[:n]
}

// growVecs is growVec for a slice of vectors.
func growVecs(vs []tensor.Vector, n int) []tensor.Vector {
	if cap(vs) < n {
		return make([]tensor.Vector, n)
	}
	return vs[:n]
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

// question readies f for a pass over this model and embeds the question
// into U[0].
//
//mnnfast:hotpath
func (m *Model) question(f *Forward, words []int) {
	hops := m.Cfg.Hops
	f.U = growVecs(f.U, hops+1)
	f.P, f.O = growVecs(f.P, hops), growVecs(f.O, hops)
	f.ExitHop, f.full = hops, false
	f.U[0] = growVec(f.U[0], m.Cfg.Dim)
	m.encodeInto(m.B, words, f.U[0])
}

// advance closes hop k for the questions fs with the state update
// u' = u + o (adjacent tying) or u' = H·u + o (layer-wise). H is
// model-global, so its rows are the outer loop: each is read once for
// all of fs. Per question that is one tensor.Dot per row in ascending
// order whatever the size of fs.
//
//mnnfast:hotpath
func (m *Model) advance(k int, fs []*Forward) {
	d := m.Cfg.Dim
	for _, f := range fs {
		f.U[k+1] = growVec(f.U[k+1], d)
	}
	if m.Cfg.Tying == TyingLayerwise {
		for r := 0; r < d; r++ {
			hrow := m.H.Row(r)
			for _, f := range fs {
				f.U[k+1][r] = tensor.Dot(hrow, f.U[k])
			}
		}
	} else {
		for _, f := range fs {
			copy(f.U[k+1], f.U[k])
		}
	}
	for _, f := range fs {
		f.U[k+1].AddInPlace(f.O[k])
	}
}

// project writes the answer logits W·U[h] of the questions fs: the final
// output (h = Hops) and the gate's exit logits (h < Hops) alike. Like H
// in advance, each row of W is read once for all of fs, and per question
// it is one tensor.Dot per answer row in ascending order — so a question
// answers bit-identically alone, in any batch, and from any exit.
//
//mnnfast:hotpath
func (m *Model) project(h int, fs []*Forward) {
	for _, f := range fs {
		f.Logits = growVec(f.Logits, m.Cfg.Answers)
	}
	for r := 0; r < m.Cfg.Answers; r++ {
		wrow := m.W.Row(r)
		for _, f := range fs {
			f.Logits[r] = tensor.Dot(wrow, f.U[h])
		}
	}
}

// Apply is the dense forward pass: embed the story, then per hop
// materialise the attention vector (attendDense) and update the state,
// then project. It returns every intermediate, P included — the form the
// trainer's backward pass and the evaluation reports need; inference
// runs infer instead. The zero-skip threshold, if positive, zeroes
// attention weights below it before the weighted sum (the paper's
// Algorithm 1); the skipped mass is NOT renormalized, matching the
// paper's FPGA implementation which accumulates every exp into P_sum but
// skips only the weighted-sum work.
func (m *Model) Apply(ex Example, skipThreshold float32) *Forward {
	f := new(Forward)
	m.EmbedStoryInto(ex, &f.EmbeddedStory)
	m.question(f, ex.Question)
	one := []*Forward{f}
	for k := range f.P {
		m.attendDense(f.MemIn[k], f.MemOut[k], k, skipThreshold, f)
		m.advance(k, one)
	}
	m.project(m.Cfg.Hops, one)
	return f
}

// Predict returns the argmax answer class for the example: every hop,
// no zero-skipping.
func (m *Model) Predict(ex Example) int {
	return m.PredictGated(ex, 0, ExitPolicy{}, new(Forward), nil, nil)
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
