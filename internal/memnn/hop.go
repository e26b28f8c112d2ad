package memnn

import "mnnfast/internal/tensor"

// hopChunk is the number of memory rows attend folds into the running
// lazy-softmax state per step. It has to be long enough that the
// per-chunk work outside the block kernels (the max scan, a possible
// rescale, four dispatched calls, the switch between the M_IN and M_OUT
// streams) disappears; beyond that it only grows the scratch. Measured
// on the served shape (ns = 32768, 2 hops, avx2 tier) at d = 16, 24 and
// 64, the forward pass costs 25%, 7% and 5% more at 32 rows than at
// 256 and 4%, 2% and nothing more at 128; from 256 to 4096 rows the
// medians move by less than the run-to-run spread. 256 is the smallest
// size on the plateau at every width and keeps the scratch at 1 KB
// (DESIGN.md "Hot path" has the table).
const hopChunk = 256

// attend runs hop k's exact attention for the questions fs over one
// story's memories: the paper's column-based algorithm with lazy
// softmax (MnnFast §3.1, Equation 4). Rows are taken hopChunk at a
// time. Per chunk and question, DotRows writes the chunk's logits into
// the question's scratch; if the chunk holds a new running maximum the
// sum and the accumulator are rescaled to it; ExpInto turns the logits
// into exponentials under the running maximum and extends the sum; and
// AxpyRows adds the chunk's weighted output rows to O[k]. One division
// of the d-vector by the final sum replaces the ns divisions of a
// materialised softmax, and no ns-sized attention vector exists: what
// the attnmax gate needs, the largest attention weight exp(0)/sum, is
// left in f.peak, and P[k] is emptied.
//
// Zero-skipping is the paper's un-normalised rule: a row is bypassed
// when its exponential is below th × the running sum (this chunk
// included). The running sum never exceeds the final one, so every row
// skipped here has p_i < th; rows the normalised rule would also have
// skipped early in the story, before the mass arrived, are kept.
//
// Chunks are the outer loop and questions the inner one, so a story
// group reads each memory row once from beyond the cache whatever its
// size. Each question's state sees the same kernels on the same
// operands in the same order whether it is alone or in a group, which
// is what makes batched and unbatched answers bit-identical.
//
// It returns the number of weighted-sum rows skipped over all of fs.
//
//mnnfast:hotpath
func attend(in, out *tensor.Matrix, k int, th float32, fs []*Forward) (skipped int) {
	ns, d := in.Rows, in.Cols
	for _, f := range fs {
		f.O[k] = growVec(f.O[k], d)
		f.O[k].Zero()
		f.P[k] = f.P[k][:0]
		f.t = growVec(f.t, hopChunk)
		f.sum = 0
	}
	for lo := 0; lo < ns; lo += hopChunk {
		hi := min(lo+hopChunk, ns)
		inRows, outRows := in.Data[lo*d:hi*d], out.Data[lo*d:hi*d]
		for _, f := range fs {
			t, o := f.t[:hi-lo], f.O[k]
			tensor.DotRows(inRows, f.U[k], t)
			if cm := t.Max(); lo == 0 {
				f.max = cm
			} else if cm > f.max {
				s := tensor.Expf(f.max - cm)
				f.sum *= s
				o.Scale(s)
				f.max = cm
			}
			f.sum += tensor.ExpInto(t, t, f.max)
			skipped += tensor.AxpyRows(t, outRows, th*f.sum, o)
		}
	}
	for _, f := range fs {
		f.peak = 1 / f.sum
		f.O[k].Scale(f.peak)
	}
	return skipped
}

// attendDense is hop k's attention with the weights materialised in
// f.P[k]: p = softmax(u·M_INᵀ) — or the raw inner products during
// linear-start training — then o = Σ pᵢ·m_iᴼᵁᵀ over the rows with
// pᵢ >= th. The trainer's backward pass and the evaluation reports read
// P, so Apply runs this; inference runs attend.
//
//mnnfast:hotpath
func (m *Model) attendDense(in, out *tensor.Matrix, k int, th float32, f *Forward) (skipped int) {
	p, o := growVec(f.P[k], in.Rows), growVec(f.O[k], in.Cols)
	f.P[k], f.O[k] = p, o
	tensor.MatVec(nil, in, f.U[k], p)
	if !m.LinearAttention {
		tensor.Softmax(p)
	}
	o.Zero()
	for i, pi := range p {
		if th > 0 && pi < th {
			skipped++
			continue
		}
		tensor.Axpy(pi, out.Row(i), o)
	}
	return skipped
}

// attnPeak returns the largest attention weight of hop k, the attnmax
// gate's confidence: the peak attend left behind, or the maximum of the
// weights the dense and top-k hops keep in P[k].
//
//mnnfast:hotpath
func (f *Forward) attnPeak(k int) float32 {
	if len(f.P[k]) == 0 {
		return f.peak
	}
	return f.P[k].Max()
}
