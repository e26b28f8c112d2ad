package memnn

import (
	"math"
	"math/rand"
	"testing"

	"mnnfast/internal/babi"
	"mnnfast/internal/tensor"
)

// reorderTol bounds how far two float32 evaluations of the same hop
// equations may drift when they order the operations differently — the
// lazy-softmax hop (attend) against the dense one (attendDense) or the
// top-k gather: |got − want| <= reorderTol·(1 + max|want|) per logit.
// The measured worst case over this package's tests is under 5e-8.
const reorderTol = 1e-6

// assertReordered fails unless got is want up to reorderTol.
func assertReordered(t *testing.T, what string, got, want tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logits, want %d", what, len(got), len(want))
	}
	var scale float64
	for _, w := range want {
		scale = math.Max(scale, math.Abs(float64(w)))
	}
	for j := range want {
		if diff := math.Abs(float64(got[j]) - float64(want[j])); !(diff <= reorderTol*(1+scale)) {
			t.Fatalf("%s: logit %d = %v, want %v (off by %.3g, bound %.3g)",
				what, j, got[j], want[j], diff, reorderTol*(1+scale))
		}
	}
}

func instrumentCorpus(t *testing.T) (*Model, *Corpus) {
	t.Helper()
	opt := babi.GenOptions{Stories: 60, StoryLen: 6, People: 4, Locations: 4}
	d := babi.Generate(babi.TaskSingleFact, opt, rand.New(rand.NewSource(11)))
	train, test := d.Split(0.8)
	c := BuildCorpus(train, test, 0)
	m, err := NewModel(Config{
		Dim: 18, Hops: 2,
		Vocab:   c.Vocab.Size(),
		Answers: len(c.Answers),
		MaxSent: c.MaxSent,
	}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

// TestTimedCachedPassMatchesPlain checks on a bAbI corpus that the timed
// pass over a cached embedded story is bit-identical to the untimed,
// self-embedding one across examples and skip thresholds, and — without
// skipping, where the two hops evaluate the same equations — within
// reorderTol of the trainer's dense pass.
func TestTimedCachedPassMatchesPlain(t *testing.T) {
	m, c := instrumentCorpus(t)
	var es EmbeddedStory
	var ins Instrumentation
	for _, th := range []float32{0, 0.05, 0.5} {
		for i, ex := range c.Train[:12] {
			want := m.ApplyGated(ex, th, ExitPolicy{}, new(Forward), nil, nil)
			m.EmbedStoryInto(ex, &es)
			got := m.ApplyGated(ex, th, ExitPolicy{}, new(Forward), &es, &ins)
			if len(want.Logits) != len(got.Logits) {
				t.Fatalf("logit lengths differ")
			}
			for j := range want.Logits {
				if math.Float32bits(want.Logits[j]) != math.Float32bits(got.Logits[j]) {
					t.Fatalf("th=%v ex=%d logit %d: cached %v != plain %v",
						th, i, j, got.Logits[j], want.Logits[j])
				}
			}
			if want.Logits.ArgMax() != m.PredictGated(ex, th, ExitPolicy{}, new(Forward), &es, &ins) {
				t.Fatalf("th=%v ex=%d: PredictGated disagrees", th, i)
			}
			if th == 0 {
				assertReordered(t, "lazy-softmax hop vs dense Apply", got.Logits, m.Apply(ex, 0).Logits)
			}
		}
	}
}

// TestInstrumentationCounters checks stage times and skip counters are
// populated and consistent.
func TestInstrumentationCounters(t *testing.T) {
	m, c := instrumentCorpus(t)
	ex := c.Train[0]
	var ins Instrumentation
	m.PredictGated(ex, 0, ExitPolicy{}, new(Forward), nil, &ins)
	if ins.EmbedNS <= 0 || ins.AttentionNS <= 0 || ins.OutputNS < 0 {
		t.Errorf("stage times not populated: %+v", ins)
	}
	wantRows := int64(len(ex.Sentences) * m.Cfg.Hops)
	if ins.TotalRows != wantRows || ins.SkippedRows != 0 {
		t.Errorf("rows = %d skipped %d, want %d skipped 0", ins.TotalRows, ins.SkippedRows, wantRows)
	}

	// An absurd threshold skips every row.
	ins.Reset()
	if ins.TotalRows != 0 {
		t.Fatal("Reset did not zero counters")
	}
	m.PredictGated(ex, 2, ExitPolicy{}, new(Forward), nil, &ins)
	if ins.SkippedRows != wantRows {
		t.Errorf("threshold 2 skipped %d of %d rows, want all", ins.SkippedRows, ins.TotalRows)
	}

	// With a cached story, embed time covers only the question.
	var es EmbeddedStory
	m.EmbedStoryInto(ex, &es)
	var cached, plain Instrumentation
	m.PredictGated(ex, 0, ExitPolicy{}, new(Forward), &es, &cached)
	m.PredictGated(ex, 0, ExitPolicy{}, new(Forward), nil, &plain)
	if cached.TotalRows != plain.TotalRows {
		t.Errorf("cached path row accounting differs: %d vs %d", cached.TotalRows, plain.TotalRows)
	}
}

// TestEmbeddedStoryMismatchPanics guards against applying a stale cache
// after the story length changed.
func TestEmbeddedStoryMismatchPanics(t *testing.T) {
	m, c := instrumentCorpus(t)
	ex := c.Train[0]
	var es EmbeddedStory
	m.EmbedStoryInto(ex, &es)
	short := ex
	short.Sentences = ex.Sentences[:len(ex.Sentences)-1]
	if len(short.Sentences) == 0 {
		t.Skip("story too short for the mismatch case")
	}
	defer func() {
		if recover() == nil {
			t.Error("stale EmbeddedStory accepted")
		}
	}()
	m.ApplyGated(short, 0, ExitPolicy{}, new(Forward), &es, nil)
}

// TestEmbedStoryIntoReuse checks grow-only buffer reuse across stories
// of different lengths.
func TestEmbedStoryIntoReuse(t *testing.T) {
	m, c := instrumentCorpus(t)
	var es EmbeddedStory
	long, short := c.Train[0], c.Train[0]
	if len(long.Sentences) < 2 {
		t.Skip("need a story of >= 2 sentences")
	}
	short.Sentences = long.Sentences[:1]

	m.EmbedStoryInto(long, &es)
	m.EmbedStoryInto(short, &es)
	if es.NS != 1 || es.MemIn[0].Rows != 1 {
		t.Errorf("shrunk cache NS=%d rows=%d, want 1", es.NS, es.MemIn[0].Rows)
	}
	m.EmbedStoryInto(long, &es)
	want := m.ApplyGated(long, 0, ExitPolicy{}, new(Forward), nil, nil)
	got := m.ApplyGated(long, 0, ExitPolicy{}, new(Forward), &es, nil)
	for j := range want.Logits {
		if want.Logits[j] != got.Logits[j] {
			t.Fatalf("after regrow, logit %d: %v != %v", j, got.Logits[j], want.Logits[j])
		}
	}
}
