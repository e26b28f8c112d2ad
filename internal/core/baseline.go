package core

import (
	"mnnfast/internal/memtrace"
	"mnnfast/internal/tensor"
)

// expf is the engines' scalar exponential — the float32 fast-exp
// (see tensor.Expf for the documented error bound).
func expf(x float32) float32 { return tensor.Expf(x) }

// Baseline is the layer-by-layer MemNN inference of the paper's
// Figure 5(a): it materializes the full ns-length intermediate vectors
// T_IN (inner products), P_exp (exponentials) and P (probabilities)
// between layers. At large ns these vectors exceed the shared cache and
// spill to DRAM — the memory-bandwidth bottleneck of §2.2.1.
type Baseline struct {
	mem  *Memory
	opt  Options
	tIn  tensor.Vector // ns
	pExp tensor.Vector // ns
	p    tensor.Vector // ns
}

// NewBaseline returns a baseline engine over mem.
func NewBaseline(mem *Memory, opt Options) *Baseline {
	ns := mem.NS()
	return &Baseline{
		mem:  mem,
		opt:  opt,
		tIn:  tensor.NewVector(ns),
		pExp: tensor.NewVector(ns),
		p:    tensor.NewVector(ns),
	}
}

// Name implements Engine.
func (b *Baseline) Name() string { return "baseline" }

// Infer implements Engine with the three-layer lock-step dataflow.
func (b *Baseline) Infer(u, o tensor.Vector) Stats {
	mem, tr := b.mem, b.opt.Tracer
	ns, ed := mem.NS(), mem.Dim()
	rowBytes := ed * 4
	var st Stats
	st.Inferences = 1

	// Layer 1 — inner product: T_IN = u·M_INᵀ. Reads all of M_IN,
	// writes the ns-sized T_IN spill.
	for i := 0; i < ns; i++ {
		memtrace.Touch(tr, memtrace.RegionQuestion, memtrace.OpRead, 0, rowBytes)
		memtrace.Touch(tr, memtrace.RegionMemIn, memtrace.OpRead, int64(i)*int64(rowBytes), rowBytes)
		b.tIn[i] = tensor.Dot(u, mem.In.Row(i))
		memtrace.Touch(tr, memtrace.RegionTempIn, memtrace.OpWrite, int64(i)*4, 4)
	}
	st.InnerProductMuls = int64(ns) * int64(ed)
	st.SpillBytes += int64(ns) * 4 // T_IN written

	// Layer 2 — softmax over T_IN, in the three lock-step sub-steps of
	// the paper's CPU implementation (§4.1.1): exponentiation, sum,
	// normalization. Each sub-step re-reads an ns-sized vector.
	max := b.tIn.Max()
	for i := 0; i < ns; i++ {
		memtrace.Touch(tr, memtrace.RegionTempIn, memtrace.OpRead, int64(i)*4, 4)
		b.pExp[i] = expf(b.tIn[i] - max)
		memtrace.Touch(tr, memtrace.RegionTempPexp, memtrace.OpWrite, int64(i)*4, 4)
	}
	st.Exps = int64(ns)
	st.SpillBytes += int64(ns) * 4 // T_IN re-read
	st.SpillBytes += int64(ns) * 4 // P_exp written

	var sum float64
	for i := 0; i < ns; i++ {
		memtrace.Touch(tr, memtrace.RegionTempPexp, memtrace.OpRead, int64(i)*4, 4)
		sum += float64(b.pExp[i])
	}
	st.SpillBytes += int64(ns) * 4 // P_exp re-read
	fsum := float32(sum)

	for i := 0; i < ns; i++ {
		memtrace.Touch(tr, memtrace.RegionTempPexp, memtrace.OpRead, int64(i)*4, 4)
		b.p[i] = b.pExp[i] / fsum
		memtrace.Touch(tr, memtrace.RegionTempP, memtrace.OpWrite, int64(i)*4, 4)
	}
	st.Divisions = int64(ns) // one division per story sentence (Fig 5a step 2-2)
	st.SpillBytes += int64(ns) * 4 * 2

	// Layer 3 — weighted sum: o = Σ pᵢ·m_iᴼᵁᵀ. Reads all of M_OUT and
	// re-reads the P spill.
	if tr != nil {
		for i := 0; i < ns; i++ {
			memtrace.Touch(tr, memtrace.RegionTempP, memtrace.OpRead, int64(i)*4, 4)
			memtrace.Touch(tr, memtrace.RegionMemOut, memtrace.OpRead, int64(i)*int64(rowBytes), rowBytes)
		}
		memtrace.Touch(tr, memtrace.RegionOutput, memtrace.OpWrite, 0, rowBytes)
	}
	tensor.VecMat(nil, b.p, mem.Out, o)
	st.WeightedSumMuls = int64(ns) * int64(ed)
	st.TotalRows = int64(ns)
	st.SpillBytes += int64(ns) * 4 // P re-read
	return st
}
