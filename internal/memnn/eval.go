package memnn

import (
	"fmt"

	"mnnfast/internal/tensor"
)

// Accuracy returns the fraction of examples whose argmax prediction
// matches the label, with zero-skipping at the given threshold
// (threshold 0 disables skipping — the exact baseline).
func (m *Model) Accuracy(examples []Example, threshold float32) float64 {
	if len(examples) == 0 {
		return 0
	}
	correct := 0
	var f Forward
	for _, ex := range examples {
		if m.PredictGated(ex, threshold, ExitPolicy{}, &f, nil, nil) == ex.Answer {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// SkipStats quantifies the zero-skipping tradeoff of Figure 7 on a test
// set: how much weighted-sum work is bypassed and what it costs in
// accuracy relative to the exact model.
type SkipStats struct {
	Threshold        float32
	TotalRows        int64   // weighted-sum row operations without skipping
	SkippedRows      int64   // rows bypassed at this threshold
	BaseAccuracy     float64 // exact-model accuracy
	SkipAccuracy     float64 // accuracy with skipping
	ComputeReduction float64 // SkippedRows / TotalRows
	AccuracyLoss     float64 // relative loss: (base - skip) / base
}

// EvaluateSkip measures zero-skipping at one threshold.
func (m *Model) EvaluateSkip(examples []Example, threshold float32) SkipStats {
	s := SkipStats{Threshold: threshold}
	baseCorrect, skipCorrect := 0, 0
	var skip Forward
	for _, ex := range examples {
		f := m.Apply(ex, 0)
		if f.Logits.ArgMax() == ex.Answer {
			baseCorrect++
		}
		for _, p := range f.P {
			for _, pi := range p {
				s.TotalRows++
				if pi < threshold {
					s.SkippedRows++
				}
			}
		}
		if m.PredictGated(ex, threshold, ExitPolicy{}, &skip, nil, nil) == ex.Answer {
			skipCorrect++
		}
	}
	n := float64(len(examples))
	if n > 0 {
		s.BaseAccuracy = float64(baseCorrect) / n
		s.SkipAccuracy = float64(skipCorrect) / n
	}
	if s.TotalRows > 0 {
		s.ComputeReduction = float64(s.SkippedRows) / float64(s.TotalRows)
	}
	if s.BaseAccuracy > 0 {
		s.AccuracyLoss = (s.BaseAccuracy - s.SkipAccuracy) / s.BaseAccuracy
	}
	return s
}

// String formats the stats as one experiment row.
//
//mnnfast:coldpath
func (s SkipStats) String() string {
	return fmt.Sprintf("th=%-8g reduction=%5.1f%% acc %.3f→%.3f (loss %.2f%%)",
		s.Threshold, 100*s.ComputeReduction, s.BaseAccuracy, s.SkipAccuracy, 100*s.AccuracyLoss)
}

// AttentionMatrix collects the first-hop attention vector of up to nq
// examples into an ns×nq matrix — the data behind the paper's Figure 6
// heatmap (each column is one question's p-vector). Stories shorter
// than ns leave zero padding at the bottom of their column.
func (m *Model) AttentionMatrix(examples []Example, nq, hop int) *tensor.Matrix {
	if hop < 0 || hop >= m.Cfg.Hops {
		panic(fmt.Sprintf("memnn: hop %d out of range [0, %d)", hop, m.Cfg.Hops))
	}
	if nq > len(examples) {
		nq = len(examples)
	}
	out := tensor.NewMatrix(m.Cfg.MaxSent, nq)
	for q := 0; q < nq; q++ {
		f := m.Apply(examples[q], 0)
		for i, p := range f.P[hop] {
			out.Set(i, q, p)
		}
	}
	return out
}

// SparsitySummary summarizes how concentrated attention is — the
// quantitative reading of Figure 6.
type SparsitySummary struct {
	Questions      int
	MeanBelow01    float64 // mean fraction of p-values < 0.1
	MeanBelow001   float64 // mean fraction of p-values < 0.01
	MeanTopMass    float64 // mean attention mass of the single largest value
	MeanActiveRows float64 // mean count of p-values >= 0.1
}

// SparsityOf computes attention-sparsity statistics over the first hop
// of up to nq examples.
func (m *Model) SparsityOf(examples []Example, nq int) SparsitySummary {
	if nq > len(examples) {
		nq = len(examples)
	}
	var s SparsitySummary
	s.Questions = nq
	for q := 0; q < nq; q++ {
		f := m.Apply(examples[q], 0)
		p := f.P[0]
		var below01, below001, active int
		var top float32
		for _, pi := range p {
			if pi < 0.1 {
				below01++
			} else {
				active++
			}
			if pi < 0.01 {
				below001++
			}
			if pi > top {
				top = pi
			}
		}
		n := float64(len(p))
		s.MeanBelow01 += float64(below01) / n
		s.MeanBelow001 += float64(below001) / n
		s.MeanTopMass += float64(top)
		s.MeanActiveRows += float64(active)
	}
	if nq > 0 {
		s.MeanBelow01 /= float64(nq)
		s.MeanBelow001 /= float64(nq)
		s.MeanTopMass /= float64(nq)
		s.MeanActiveRows /= float64(nq)
	}
	return s
}
