package equivtest

import (
	"math"

	"mnnfast/internal/memnn"
	"mnnfast/internal/tensor"
)

// Oracle is the reference forward pass the engines are held to: the
// equations of End-To-End Memory Networks (Sukhbaatar et al., §2 and
// §4.1; PAPER.md §1), one loop per equation, in float64, sharing no code
// with memnn beyond the parameter matrices. It returns the answer
// logits W·u_K of ex with exact attention and no zero-skipping.
func Oracle(m *memnn.Model, ex memnn.Example) []float64 {
	cfg := m.Cfg
	d, ns := cfg.Dim, len(ex.Sentences)

	// Sentence representation: Σ_j l_j ∘ E·x_j (+ temporal row), with
	// l_kj = (1 − j/J) − (k/d)(1 − 2j/J) under position encoding and 1
	// for bag-of-words; word id 0 is padding.
	embed := func(table *tensor.Matrix, words []int, temporal tensor.Vector) []float64 {
		v := make([]float64, d)
		var bigJ, j float64
		for _, w := range words {
			if w != 0 {
				bigJ++
			}
		}
		for _, w := range words {
			if w == 0 {
				continue
			}
			j++
			for k := range v {
				l := 1.0
				if cfg.Position {
					l = (1 - j/bigJ) - (float64(k+1)/float64(d))*(1-2*j/bigJ)
				}
				v[k] += l * float64(table.At(w, k))
			}
		}
		for k, t := range temporal {
			v[k] += float64(t)
		}
		return v
	}

	u := embed(m.B, ex.Question, nil) // u_0 = B·q
	for hop := 0; hop < cfg.Hops; hop++ {
		a, c, ti := m.Emb[0], m.Emb[1], 0 // layer-wise: one A, one C
		if cfg.Tying == memnn.TyingAdjacent {
			a, c, ti = m.Emb[hop], m.Emb[hop+1], hop // A_{k+1} = C_k
		}
		// p_i = softmax(uᵀ·m_i), m_i = A·x_i + T_A(i); the most recent
		// sentence takes temporal row 0.
		p, sum := make([]float64, ns), 0.0
		for i := range p {
			for k, mk := range embed(a, ex.Sentences[i], m.TimeIn[ti].Row(ns-1-i)) {
				p[i] += u[k] * mk
			}
		}
		top := math.Inf(-1)
		for _, x := range p {
			top = math.Max(top, x)
		}
		for i := range p {
			p[i] = math.Exp(p[i] - top)
			sum += p[i]
		}
		// o = Σ_i p_i·c_i, c_i = C·x_i + T_C(i).
		o := make([]float64, d)
		for i := range p {
			for k, ck := range embed(c, ex.Sentences[i], m.TimeOut[ti].Row(ns-1-i)) {
				o[k] += p[i] / sum * ck
			}
		}
		// u_{k+1} = u_k + o_k, or H·u_k + o_k with layer-wise tying.
		next := make([]float64, d)
		for k := range next {
			next[k] = o[k] + u[k]
			if cfg.Tying == memnn.TyingLayerwise {
				next[k] = o[k]
				for j := range u {
					next[k] += float64(m.H.At(k, j)) * u[j]
				}
			}
		}
		u = next
	}

	logits := make([]float64, cfg.Answers) // â = W·u_K
	for r := range logits {
		for k := range u {
			logits[r] += float64(m.W.At(r, k)) * u[k]
		}
	}
	return logits
}
