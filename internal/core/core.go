// Package core implements the MnnFast inference engines — the paper's
// primary contribution. Given a question state vector u and the
// embedded input/output memories M_IN and M_OUT, both engines compute
// the response vector
//
//	o = Σᵢ Softmax(u·M_INᵀ)ᵢ · m_iᴼᵁᵀ
//
// The Baseline engine follows the layer-by-layer dataflow of the
// paper's Figure 5(a): inner product → softmax → weighted sum, with
// ns-sized intermediate vectors (T_IN, P_exp, P) materialized between
// layers — the data spills that saturate memory bandwidth at scale.
//
// The Column engine implements the paper's column-based algorithm with
// lazy softmax (Figure 5(b), Equation 4): the memories are processed in
// chunks; each chunk computes its inner products, exponentials, partial
// sum and partial weighted sum with chunk-sized scratch that stays
// cache-resident; softmax's division happens once at the end, per
// output element (ed divisions instead of ns). Optional extensions are
// streaming (prefetch of the next chunk ahead of its compute) and
// zero-skipping (bypassing weighted-sum rows whose exponential falls
// below a threshold).
//
// These engines drive the paper-figure experiments (internal/experiments):
// both run serially and report their logical memory accesses to a
// Tracer, whose cache simulator the figures read. The served model's
// attention lives in internal/memnn.
package core

import (
	"fmt"

	"mnnfast/internal/memtrace"
	"mnnfast/internal/tensor"
)

// Memory is the embedded knowledge database: the input and output
// memories of the paper's Figure 2, each ns×ed.
type Memory struct {
	In  *tensor.Matrix // M_IN, ns×ed
	Out *tensor.Matrix // M_OUT, ns×ed
}

// NewMemory validates and wraps the two memory matrices.
func NewMemory(in, out *tensor.Matrix) (*Memory, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("core: nil memory matrix")
	}
	if in.Rows != out.Rows || in.Cols != out.Cols {
		return nil, fmt.Errorf("core: memory shape mismatch: in %dx%d, out %dx%d",
			in.Rows, in.Cols, out.Rows, out.Cols)
	}
	if in.Rows == 0 || in.Cols == 0 {
		return nil, fmt.Errorf("core: empty memory %dx%d", in.Rows, in.Cols)
	}
	return &Memory{In: in, Out: out}, nil
}

// NS returns the number of story sentences ns.
func (m *Memory) NS() int { return m.In.Rows }

// Dim returns the embedding dimension ed.
func (m *Memory) Dim() int { return m.In.Cols }

// Options configures an engine.
type Options struct {
	// ChunkSize is the number of sentences per column chunk; 0 selects
	// the paper's CPU default of 1000 (Table 1). The baseline engine
	// ignores it.
	ChunkSize int
	// Streaming prefetches each chunk one chunk ahead of its compute —
	// the paper's double buffer (column engine only).
	Streaming bool
	// SkipThreshold enables zero-skipping (§3.2): a weighted-sum row is
	// bypassed when its exponential is below the threshold times its
	// chunk's exponential sum — a single-pass approximation of the
	// paper's probability test p_i < th_skip. Because a chunk's sum is
	// at most the final normalizer, the approximation is conservative:
	// a row skipped under its chunk's sum would also be skipped under
	// the final one. 0 disables skipping.
	SkipThreshold float32
	// Tracer receives logical memory accesses for the cache simulator;
	// nil disables tracing.
	Tracer memtrace.Toucher
}

func (o Options) chunkSize() int {
	if o.ChunkSize <= 0 {
		return 1000
	}
	return o.ChunkSize
}

// Stats counts the work one or more Infer calls performed. The
// experiment harness derives the paper's per-operation latency
// breakdowns (Fig 9a) and zero-skipping compute-reduction numbers from
// these counters.
type Stats struct {
	InnerProductMuls int64 // multiplies in u·M_INᵀ
	WeightedSumMuls  int64 // multiplies in Σ pᵢ·m_iᴼᵁᵀ (after skipping)
	Exps             int64 // exponential evaluations
	Divisions        int64 // softmax division operations
	SkippedRows      int64 // weighted-sum rows bypassed by zero-skipping
	TotalRows        int64 // weighted-sum rows considered
	SpillBytes       int64 // intermediate-vector bytes written + re-read
	Inferences       int64 // Infer calls accumulated
}

// Add accumulates other into s.
//
//mnnfast:hotpath
func (s *Stats) Add(other Stats) {
	s.InnerProductMuls += other.InnerProductMuls
	s.WeightedSumMuls += other.WeightedSumMuls
	s.Exps += other.Exps
	s.Divisions += other.Divisions
	s.SkippedRows += other.SkippedRows
	s.TotalRows += other.TotalRows
	s.SpillBytes += other.SpillBytes
	s.Inferences += other.Inferences
}

// SkipFraction returns the fraction of weighted-sum rows bypassed.
func (s Stats) SkipFraction() float64 {
	if s.TotalRows == 0 {
		return 0
	}
	return float64(s.SkippedRows) / float64(s.TotalRows)
}

// TotalMuls returns all multiply operations counted.
func (s Stats) TotalMuls() int64 { return s.InnerProductMuls + s.WeightedSumMuls }

// Engine computes response vectors against a fixed Memory. An engine
// owns its per-query scratch, so it is not safe for concurrent use.
type Engine interface {
	// Infer computes the response vector for question state u into o
	// (length ed each) and returns the work statistics of this call.
	Infer(u, o tensor.Vector) Stats
	// Name identifies the engine variant in experiment output.
	Name() string
}

// partial is a mergeable fragment of a column-based inference: the
// running maximum shift, the partial exponential sum, and the partial
// (shifted) weighted sum. Each chunk computes one, and the chunk
// partials merge in ascending chunk order.
type partial struct {
	Max float32       // shift applied to the exponentials (-Inf when empty)
	Sum float32       // Σ exp(lᵢ - Max)
	O   tensor.Vector // Σ exp(lᵢ - Max)·m_iᴼᵁᵀ
}

// newPartial returns an empty partial of dimension ed.
func newPartial(ed int) partial { return partial{Max: negInf, O: tensor.NewVector(ed)} }

// reset empties p, keeping its O buffer.
func (p *partial) reset() {
	p.Max, p.Sum = negInf, 0
	p.O.Zero()
}

const negInf = float32(-3.4e38)

// Merge folds other into p, rescaling whichever side has the smaller
// shift so both are expressed relative to the common maximum.
//
//mnnfast:hotpath
func (p *partial) Merge(other *partial) {
	if other.Sum == 0 && other.Max == negInf {
		return
	}
	if p.Sum == 0 && p.Max == negInf {
		p.Max = other.Max
		p.Sum = other.Sum
		copy(p.O, other.O)
		return
	}
	if other.Max > p.Max {
		scale := expf(p.Max - other.Max)
		p.Sum = p.Sum*scale + other.Sum
		p.O.Scale(scale)
		p.O.AddInPlace(other.O)
		p.Max = other.Max
		return
	}
	scale := expf(other.Max - p.Max)
	p.Sum += other.Sum * scale
	tensor.Axpy(scale, other.O, p.O)
}

// Finalize divides the partial weighted sum by the exponential sum —
// the paper's lazy softmax division — writing the response into o and
// returning the number of divisions performed (ed, not ns).
//
//mnnfast:hotpath
func (p *partial) Finalize(o tensor.Vector) int64 {
	inv := float32(1) / p.Sum
	for i, x := range p.O {
		o[i] = x * inv
	}
	return int64(len(o))
}
