package memnn

import (
	"math"
	"math/rand"
	"testing"

	"mnnfast/internal/tensor"
)

// embedFixture is a model of cfg with a random story of ns sentences of
// 1–6 word IDs, pad ID 0 among them.
func embedFixture(t testing.TB, cfg Config, ns int) (*Model, Example) {
	t.Helper()
	m, err := NewModel(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	ex := Example{Sentences: make([][]int, ns)}
	for i := range ex.Sentences {
		words := make([]int, 1+rng.Intn(6))
		for j := range words {
			words[j] = rng.Intn(cfg.Vocab) // 0 is the pad ID
		}
		ex.Sentences[i] = words
	}
	return m, ex
}

// TestEmbedStoryIntoMatchesPerRow pins the fused embed bit for bit to
// the per-row form: each M_IN/M_OUT row encoded from its own table with
// encodeInto, then the temporal row added — under both tying schemes,
// with and without position encoding, over sentences with pad IDs.
func TestEmbedStoryIntoMatchesPerRow(t *testing.T) {
	for _, tying := range []Tying{TyingAdjacent, TyingLayerwise} {
		for _, pos := range []bool{false, true} {
			cfg := Config{Dim: 13, Hops: 3, Vocab: 9, Answers: 4, MaxSent: 140, Position: pos, Tying: tying}
			m, ex := embedFixture(t, cfg, 133)
			var es EmbeddedStory
			m.EmbedStoryInto(ex, &es)
			row := tensor.NewVector(cfg.Dim)
			ns := len(ex.Sentences)
			for k := 0; k < cfg.Hops; k++ {
				ti := m.timeIdx(k)
				for i, words := range ex.Sentences {
					for _, side := range []struct {
						name      string
						emb       int
						got, time []float32
					}{
						{"in", m.inTable(k), es.MemIn[k].Row(i), m.TimeIn[ti].Row(ns - 1 - i)},
						{"out", m.outTable(k), es.MemOut[k].Row(i), m.TimeOut[ti].Row(ns - 1 - i)},
					} {
						for j := range row {
							row[j] = 1 // encodeInto must zero it
						}
						m.encodeInto(m.Emb[side.emb], words, row)
						row.AddInPlace(side.time)
						for j := range row {
							if math.Float32bits(side.got[j]) != math.Float32bits(row[j]) {
								t.Fatalf("%s position=%v hop %d M_%s row %d [%d]: fused %v, per-row %v",
									tying, pos, k, side.name, i, j, side.got[j], row[j])
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkEmbedStoryInto embeds a 32768-sentence story at the served
// long workloads' shape (d = 24, 2 hops, adjacent tying).
func BenchmarkEmbedStoryInto(b *testing.B) {
	m, ex := embedFixture(b, Config{Dim: 24, Hops: 2, Vocab: 30, Answers: 4, MaxSent: 32768}, 32768)
	var es EmbeddedStory
	m.EmbedStoryInto(ex, &es)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EmbedStoryInto(ex, &es)
	}
}
