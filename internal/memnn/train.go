package memnn

import (
	"fmt"
	"math"
	"math/rand"

	"mnnfast/internal/tensor"
)

// TrainOptions configures SGD training. Defaults follow the end-to-end
// memory networks recipe: lr 0.01 halved periodically, gradient-norm
// clipping at 40.
type TrainOptions struct {
	Epochs       int
	LearningRate float32
	AnnealEvery  int     // halve lr every this many epochs (0 = never)
	AnnealFactor float32 // multiplier applied at each anneal step
	ClipNorm     float32 // global gradient L2 clip per example (0 = off)
	Seed         int64   // shuffling seed
	// LinearStartEpochs trains with the attention softmax removed for
	// the first N epochs (the MemN2N paper's "linear start"), which
	// helps the attention escape poor local minima before the softmax
	// sharpens it.
	LinearStartEpochs int
	// BatchSize accumulates gradients over this many examples before
	// each parameter step (0 or 1 = pure per-example SGD). Clipping
	// applies to the accumulated batch gradient, scaled by 1/batch.
	BatchSize int
	// Validation, when non-empty, is evaluated after every epoch; the
	// accuracy trajectory lands in TrainResult.ValAccuracy.
	Validation []Example
	// Patience stops training early after this many consecutive epochs
	// without a new best validation accuracy (0 = never stop early;
	// requires Validation).
	Patience int
	Logf     func(format string, args ...any) // optional progress sink
}

// DefaultTrainOptions returns the standard recipe scaled for the small
// synthetic tasks.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		Epochs:       60,
		LearningRate: 0.01,
		AnnealEvery:  20,
		AnnealFactor: 0.5,
		ClipNorm:     40,
		Seed:         1,
	}
}

// grads mirrors the model's parameter tensors.
type grads struct {
	b       *tensor.Matrix
	emb     []*tensor.Matrix
	timeIn  []*tensor.Matrix
	timeOut []*tensor.Matrix
	h       *tensor.Matrix
	w       *tensor.Matrix
}

func newGrads(m *Model) *grads {
	g := &grads{
		b:   tensor.NewMatrix(m.B.Rows, m.B.Cols),
		w:   tensor.NewMatrix(m.W.Rows, m.W.Cols),
		emb: make([]*tensor.Matrix, len(m.Emb)),
	}
	for i, e := range m.Emb {
		g.emb[i] = tensor.NewMatrix(e.Rows, e.Cols)
	}
	g.timeIn = make([]*tensor.Matrix, len(m.TimeIn))
	g.timeOut = make([]*tensor.Matrix, len(m.TimeOut))
	for k := range m.TimeIn {
		g.timeIn[k] = tensor.NewMatrix(m.TimeIn[k].Rows, m.TimeIn[k].Cols)
		g.timeOut[k] = tensor.NewMatrix(m.TimeOut[k].Rows, m.TimeOut[k].Cols)
	}
	if m.H != nil {
		g.h = tensor.NewMatrix(m.H.Rows, m.H.Cols)
	}
	return g
}

func (g *grads) zero() {
	g.b.Zero()
	g.w.Zero()
	for _, e := range g.emb {
		e.Zero()
	}
	for k := range g.timeIn {
		g.timeIn[k].Zero()
		g.timeOut[k].Zero()
	}
	if g.h != nil {
		g.h.Zero()
	}
}

func (g *grads) each(fn func(param *tensor.Matrix)) {
	fn(g.b)
	fn(g.w)
	for _, e := range g.emb {
		fn(e)
	}
	for k := range g.timeIn {
		fn(g.timeIn[k])
		fn(g.timeOut[k])
	}
	if g.h != nil {
		fn(g.h)
	}
}

func (g *grads) norm() float32 {
	var s float64
	g.each(func(p *tensor.Matrix) {
		for _, x := range p.Data {
			s += float64(x) * float64(x)
		}
	})
	return float32(math.Sqrt(s))
}

// backward computes the example's gradient into g (which must be
// zeroed) and returns the cross-entropy loss.
func (m *Model) backward(ex Example, f *Forward, g *grads) float32 {
	d := m.Cfg.Dim
	ns := f.NS

	// Softmax cross-entropy on the answer logits.
	probs := f.Logits.Clone()
	tensor.Softmax(probs)
	loss := -float32(math.Log(math.Max(float64(probs[ex.Answer]), 1e-30)))
	dLogits := probs // reuse: dL/dlogit = p - onehot
	dLogits[ex.Answer] -= 1

	// W and the final internal state.
	uK := f.U[m.Cfg.Hops]
	tensor.OuterAccumulate(g.w, dLogits, uK, 1)
	dU := tensor.NewVector(d)
	for a, ga := range dLogits {
		tensor.Axpy(ga, m.W.Row(a), dU)
	}

	dIn := tensor.NewVector(d)
	for k := m.Cfg.Hops - 1; k >= 0; k-- {
		p := f.P[k]
		in, out := f.MemIn[k], f.MemOut[k]
		ti := m.timeIdx(k)
		// u_{k+1} = [H·]u_k + o_k: the o branch receives dU directly.
		dO := dU
		// o = Σ p_i out_i.
		dP := tensor.NewVector(ns)
		for i := 0; i < ns; i++ {
			dP[i] = tensor.Dot(dO, out.Row(i))
		}

		// Attention backward. With softmax:
		// dlogit_i = p_i (dP_i - Σ_j p_j dP_j); linear start passes dP
		// through unchanged.
		dLogit := dP
		if !m.LinearAttention {
			var sum float32
			for i := 0; i < ns; i++ {
				sum += p[i] * dP[i]
			}
			for i := 0; i < ns; i++ {
				dLogit[i] = p[i] * (dP[i] - sum)
			}
		}

		// State-branch backward: adjacent passes dU through the
		// identity; layer-wise routes it through H.
		dUNext := tensor.NewVector(d)
		if m.Cfg.Tying == TyingLayerwise {
			// dU_k += Hᵀ·dU'; dH += dU' ⊗ u_k.
			for r := 0; r < d; r++ {
				tensor.Axpy(dU[r], m.H.Row(r), dUNext)
			}
			tensor.OuterAccumulate(g.h, dU, f.U[k], 1)
		} else {
			copy(dUNext, dU)
		}

		// logits_i = u_k · in_i.
		uk := f.U[k]
		gIn := g.emb[m.inTable(k)]
		gOut := g.emb[m.outTable(k)]
		for i := 0; i < ns; i++ {
			if gl := dLogit[i]; gl != 0 {
				tensor.Axpy(gl, in.Row(i), dUNext)
				// dIn_i = gl · u_k → embedding rows + temporal row.
				dIn.Zero()
				tensor.Axpy(gl, uk, dIn)
				m.scatter(gIn, g.timeIn[ti], ex.Sentences[i], i, ns, dIn)
			}
			if pi := p[i]; pi != 0 {
				// dOut_i = p_i · dO.
				dIn.Zero()
				tensor.Axpy(pi, dO, dIn)
				m.scatter(gOut, g.timeOut[ti], ex.Sentences[i], i, ns, dIn)
			}
		}
		dU = dUNext
	}

	// Question embedding (no temporal row).
	m.scatterWords(g.b, ex.Question, dU)
	return loss
}

// scatter adds grad to the embedding rows of every non-pad word of the
// sentence (position-weighted under PE) and to the temporal row for
// slot i of ns.
func (m *Model) scatter(emb, temporal *tensor.Matrix, words []int, i, ns int, grad tensor.Vector) {
	m.scatterWords(emb, words, grad)
	tensor.Axpy(1, grad, temporal.Row(ns-1-i))
}

// scatterWords distributes grad onto the embedding rows of the words,
// applying the same position weights the forward encoding used.
func (m *Model) scatterWords(emb *tensor.Matrix, words []int, grad tensor.Vector) {
	if !m.Cfg.Position {
		for _, w := range words {
			if w == 0 {
				continue
			}
			tensor.Axpy(1, grad, emb.Row(w))
		}
		return
	}
	bigJ := 0
	for _, w := range words {
		if w != 0 {
			bigJ++
		}
	}
	if bigJ == 0 {
		return
	}
	j := 0
	d := m.Cfg.Dim
	for _, w := range words {
		if w == 0 {
			continue
		}
		j++
		row := emb.Row(w)
		for k := range grad {
			row[k] += posWeight(j, bigJ, k, d) * grad[k]
		}
	}
}

// step applies g to the model with learning rate lr, clipping the
// global norm first if requested.
func (m *Model) step(g *grads, lr, clip float32) {
	scale := -lr
	if clip > 0 {
		if n := g.norm(); n > clip {
			scale *= clip / n
		}
	}
	apply := func(param, grad *tensor.Matrix) {
		for i, x := range grad.Data {
			param.Data[i] += scale * x
		}
	}
	apply(m.B, g.b)
	apply(m.W, g.w)
	for i := range m.Emb {
		apply(m.Emb[i], g.emb[i])
	}
	for k := range m.TimeIn {
		apply(m.TimeIn[k], g.timeIn[k])
		apply(m.TimeOut[k], g.timeOut[k])
	}
	if m.H != nil {
		apply(m.H, g.h)
	}
}

// TrainResult reports the training trajectory.
type TrainResult struct {
	EpochLoss   []float32 // mean per-example loss per epoch
	ValAccuracy []float64 // per-epoch validation accuracy (if Validation set)
	StoppedAt   int       // epochs actually run (== Epochs unless early-stopped)
	FinalLR     float32
}

// Train runs per-example SGD over the examples for the configured
// number of epochs and returns the loss trajectory.
func (m *Model) Train(examples []Example, opt TrainOptions) (*TrainResult, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("memnn: Train with no examples")
	}
	for i, ex := range examples {
		if ex.Answer < 0 || ex.Answer >= m.Cfg.Answers {
			return nil, fmt.Errorf("memnn: example %d has answer class %d outside [0, %d)", i, ex.Answer, m.Cfg.Answers)
		}
		if len(ex.Sentences) == 0 {
			return nil, fmt.Errorf("memnn: example %d has no story", i)
		}
	}
	if opt.Epochs < 1 {
		opt.Epochs = 1
	}
	if opt.LearningRate <= 0 {
		opt.LearningRate = 0.01
	}
	if opt.AnnealFactor <= 0 {
		opt.AnnealFactor = 0.5
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	g := newGrads(m)
	lr := opt.LearningRate
	res := &TrainResult{}

	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		m.LinearAttention = epoch < opt.LinearStartEpochs
		if opt.AnnealEvery > 0 && epoch > 0 && epoch%opt.AnnealEvery == 0 {
			lr *= opt.AnnealFactor
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		batch := opt.BatchSize
		if batch < 1 {
			batch = 1
		}
		g.zero()
		pending := 0
		for _, idx := range order {
			ex := examples[idx]
			f := m.Apply(ex, 0)
			total += float64(m.backward(ex, f, g))
			pending++
			if pending == batch {
				m.step(g, lr/float32(batch), opt.ClipNorm)
				g.zero()
				pending = 0
			}
		}
		if pending > 0 {
			m.step(g, lr/float32(pending), opt.ClipNorm)
			g.zero()
		}
		mean := float32(total / float64(len(examples)))
		res.EpochLoss = append(res.EpochLoss, mean)
		res.StoppedAt = epoch + 1

		if len(opt.Validation) > 0 {
			// Evaluate with the softmax on even during linear start —
			// validation measures the deployable model.
			wasLinear := m.LinearAttention
			m.LinearAttention = false
			acc := m.Accuracy(opt.Validation, 0)
			m.LinearAttention = wasLinear
			res.ValAccuracy = append(res.ValAccuracy, acc)
			if opt.Logf != nil {
				opt.Logf("epoch %3d: loss %.4f val %.3f (lr %.4g)", epoch, mean, acc, lr)
			}
			if opt.Patience > 0 && epoch >= opt.LinearStartEpochs {
				best := acc
				bestAge := 0
				for i, a := range res.ValAccuracy {
					if a >= best {
						best = a
						bestAge = len(res.ValAccuracy) - 1 - i
					}
				}
				if bestAge >= opt.Patience {
					break
				}
			}
			continue
		}
		if opt.Logf != nil {
			opt.Logf("epoch %3d: loss %.4f (lr %.4g)", epoch, mean, lr)
		}
	}
	m.LinearAttention = false
	res.FinalLR = lr
	return res, nil
}
