package memnn

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"mnnfast/internal/tensor"
)

// longStoryCase builds an untrained model of width d and one embedded
// story of ns sentences with temporal rows of stddev timeStd — at 1.0
// the attention is peaked like a trained model's, and the running
// maximum keeps rising over the first chunks.
func longStoryCase(tb testing.TB, ns, d, hops int, timeStd float32) (*Model, Example, *EmbeddedStory) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(ns)*31 + int64(d)))
	m, err := NewModel(Config{Dim: d, Hops: hops, Vocab: 40, Answers: 6, MaxSent: ns}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	for k := range m.TimeIn {
		m.TimeIn[k] = tensor.GaussianMatrix(rng, ns, d, timeStd)
		m.TimeOut[k] = tensor.GaussianMatrix(rng, ns, d, timeStd)
	}
	ex := Example{Sentences: make([][]int, ns), Question: randWords(rng, 40, 5)}
	for i := range ex.Sentences {
		ex.Sentences[i] = randWords(rng, 40, 6)
	}
	es := new(EmbeddedStory)
	m.EmbedStoryInto(ex, es)
	return m, ex, es
}

// TestAttendMatchesDenseHop pins the lazy-softmax hop against the
// dense one on stories long enough to span many chunks (including a
// ragged last one) with a moving running maximum: without skipping the
// logits agree within reorderTol, and with it attend skips a subset of
// what the normalised rule skips — never a row with p_i >= th.
func TestAttendMatchesDenseHop(t *testing.T) {
	for _, ns := range []int{1, hopChunk - 1, hopChunk, hopChunk + 1, 5*hopChunk + 17} {
		for _, d := range []int{8, 20, 24} {
			m, ex, es := longStoryCase(t, ns, d, 2, 1.0)
			var lazy Forward
			got := m.ApplyGated(ex, 0, ExitPolicy{}, &lazy, es, nil)
			dense := m.Apply(ex, 0)
			assertReordered(t, "ns="+strconv.Itoa(ns)+" d="+strconv.Itoa(d), got.Logits, dense.Logits)
			if peak := dense.P[1].Max(); !(math.Abs(float64(lazy.attnPeak(1)-peak)) <= reorderTol) {
				t.Errorf("ns=%d d=%d: attention peak %v, dense softmax max %v", ns, d, lazy.attnPeak(1), peak)
			}

			const th = 1e-3
			var lazyIns Instrumentation
			m.ApplyGated(ex, th, ExitPolicy{}, &lazy, es, &lazyIns)
			var denseRows, denseSkipped int64 // the normalised rule: p_i < th
			for _, p := range m.Apply(ex, th).P {
				for _, pi := range p {
					denseRows++
					if pi < th {
						denseSkipped++
					}
				}
			}
			if lazyIns.TotalRows != denseRows || lazyIns.SkippedRows > denseSkipped {
				t.Errorf("ns=%d d=%d: lazy hop skipped %d of %d rows, normalised rule %d of %d",
					ns, d, lazyIns.SkippedRows, lazyIns.TotalRows, denseSkipped, denseRows)
			}
			if ns > 5*hopChunk && lazyIns.SkippedRows == 0 {
				t.Errorf("ns=%d d=%d: lazy hop skipped nothing at th=%v", ns, d, th)
			}
		}
	}
}

// BenchmarkPredictLongStory times the cached exact forward pass on the
// served long-story shape, the measurement hopChunk was picked by.
func BenchmarkPredictLongStory(b *testing.B) {
	for _, d := range []int{16, 24, 64} {
		m, ex, es := longStoryCase(b, 32768, d, 2, 1.0)
		var f Forward
		b.Run("d="+strconv.Itoa(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.PredictGated(ex, 0, ExitPolicy{}, &f, es, nil)
			}
		})
	}
}

// TestPredictGatedAllocs: the lazy-softmax hop keeps the forward pass
// allocation-free at steady state, over a cached story and over one
// embedded per call, across many chunks.
func TestPredictGatedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, ex, es := longStoryCase(t, 3*hopChunk+5, 24, 2, 1.0)
	var f Forward
	var ins Instrumentation
	for name, cached := range map[string]*EmbeddedStory{"cached": es, "uncached": nil} {
		m.PredictGated(ex, 0.01, ExitPolicy{}, &f, cached, &ins) // warm buffers
		if allocs := testing.AllocsPerRun(20, func() {
			m.PredictGated(ex, 0.01, ExitPolicy{Metric: ExitAttnMax, Threshold: 2}, &f, cached, &ins)
		}); allocs != 0 {
			t.Errorf("%s PredictGated allocates %v per call, want 0", name, allocs)
		}
	}
}
