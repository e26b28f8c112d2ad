package memnn

import (
	"math"
	"math/rand"
	"testing"

	"mnnfast/internal/tensor"
)

// randBatchCase builds a random model plus a batch of questions spread
// over a few random stories, mirroring a server flush: several sessions'
// embedded stories, one or more questions each.
type batchCase struct {
	model   *Model
	exs     []Example
	stories []*EmbeddedStory
	th      float32
}

func randWords(rng *rand.Rand, vocab, maxLen int) []int {
	words := make([]int, 1+rng.Intn(maxLen))
	for i := range words {
		words[i] = 1 + rng.Intn(vocab-1) // 0 is padding
	}
	return words
}

func randBatchCase(t *testing.T, rng *rand.Rand, batch int) batchCase {
	t.Helper()
	cfg := Config{
		Dim:      4 + rng.Intn(20),
		Hops:     1 + rng.Intn(3),
		Vocab:    8 + rng.Intn(24),
		Answers:  2 + rng.Intn(8),
		MaxSent:  12,
		Position: rng.Intn(2) == 0,
		Tying:    Tying(rng.Intn(2)),
	}
	model, err := NewModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	model.LinearAttention = rng.Intn(8) == 0

	// A handful of distinct stories; each question picks one at random,
	// so groups of every size (including singletons) occur.
	nStories := 1 + rng.Intn(3)
	type story struct {
		sentences [][]int
		es        *EmbeddedStory
	}
	ss := make([]story, nStories)
	for i := range ss {
		ns := 1 + rng.Intn(cfg.MaxSent-2)
		sentences := make([][]int, ns)
		for j := range sentences {
			sentences[j] = randWords(rng, cfg.Vocab, 6)
		}
		es := new(EmbeddedStory)
		model.EmbedStoryInto(Example{Sentences: sentences}, es)
		ss[i] = story{sentences: sentences, es: es}
	}

	c := batchCase{model: model}
	switch rng.Intn(3) {
	case 0:
		c.th = 0
	case 1:
		c.th = 0.01
	default:
		c.th = float32(rng.Float64() * 0.2)
	}
	for q := 0; q < batch; q++ {
		s := ss[rng.Intn(nStories)]
		c.exs = append(c.exs, Example{
			Sentences: s.sentences,
			Question:  randWords(rng, cfg.Vocab, 5),
		})
		c.stories = append(c.stories, s.es)
	}
	return c
}

// TestPredictBatchEquivalence is the batching correctness property: for
// random models, stories, questions, thresholds, and batch compositions
// (sizes 1..max, arbitrary story groupings — the shapes a random arrival
// interleaving can produce at a flush), the batched pass must yield
// logits BIT-IDENTICAL to the single-question path for every question.
// 1000+ randomized question-cases.
func TestPredictBatchEquivalence(t *testing.T) {
	const maxBatch = 12
	rng := rand.New(rand.NewSource(42))
	var bf BatchForward
	cases, questions := 0, 0
	for questions < 1200 {
		batch := 1 + rng.Intn(maxBatch)
		c := randBatchCase(t, rng, batch)

		out := make([]int, batch)
		c.model.PredictBatchInto(c.exs, c.th, c.stories, &bf, out)

		var f Forward
		for q := range c.exs {
			want := c.model.ApplyInstrumented(c.exs[q], c.th, &f, c.stories[q], nil)
			got := bf.Logits(q)
			if len(got) != len(want.Logits) {
				t.Fatalf("case %d q %d: logits length %d != %d", cases, q, len(got), len(want.Logits))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want.Logits[i]) {
					t.Fatalf("case %d q %d (batch %d, th %v): logit %d = %x, want %x (not bit-identical)",
						cases, q, batch, c.th, i, math.Float32bits(got[i]), math.Float32bits(want.Logits[i]))
				}
			}
			if want := want.Logits.ArgMax(); out[q] != want {
				t.Fatalf("case %d q %d: predicted %d, want %d", cases, q, out[q], want)
			}
		}
		cases++
		questions += batch
	}
	t.Logf("verified %d questions across %d random batches bit-identical", questions, cases)
}

// TestPredictBatchMatchesUncachedPath pins the other half of the chain:
// the cached-embedding path (EmbedStoryInto + ApplyInstrumented) is
// itself bit-identical to the same pass embedding per call, so batched
// answers equal the from-scratch single-Infer path too.
func TestPredictBatchMatchesUncachedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		c := randBatchCase(t, rng, 1)
		var f, f2 Forward
		cached := c.model.ApplyInstrumented(c.exs[0], c.th, &f, c.stories[0], nil)
		plain := c.model.ApplyInstrumented(c.exs[0], c.th, &f2, nil, nil)
		for i := range plain.Logits {
			if math.Float32bits(cached.Logits[i]) != math.Float32bits(plain.Logits[i]) {
				t.Fatalf("iter %d: cached logit %d = %x, plain %x", iter, i,
					math.Float32bits(cached.Logits[i]), math.Float32bits(plain.Logits[i]))
			}
		}
	}
}

// TestPredictBatchInstrumentationCounts checks the batch accumulates
// the same row totals as the per-question passes.
func TestPredictBatchInstrumentationCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randBatchCase(t, rng, 8)
	var bf BatchForward
	var ins Instrumentation
	out := make([]int, len(c.exs))
	c.model.PredictBatchInstrumented(c.exs, c.th, ExitPolicy{}, c.stories, &bf, &ins, out)

	var want Instrumentation
	var f Forward
	for q := range c.exs {
		c.model.ApplyInstrumented(c.exs[q], c.th, &f, c.stories[q], &want)
	}
	if ins.TotalRows != want.TotalRows || ins.SkippedRows != want.SkippedRows {
		t.Errorf("batch rows skipped/total = %d/%d, single-path %d/%d",
			ins.SkippedRows, ins.TotalRows, want.SkippedRows, want.TotalRows)
	}
	if ins.EmbedNS < 0 || ins.AttentionNS <= 0 || ins.OutputNS <= 0 {
		t.Errorf("stage timers not populated: %+v", ins)
	}
}

// TestPredictBatchValidation exercises the panic guards.
func TestPredictBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randBatchCase(t, rng, 2)
	var bf BatchForward
	out := make([]int, 2)

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() {
		c.model.PredictBatchInto(c.exs, 0, c.stories[:1], &bf, out)
	})
	mustPanic("nil story", func() {
		c.model.PredictBatchInto(c.exs, 0, []*EmbeddedStory{c.stories[0], nil}, &bf, out)
	})
	mustPanic("NS mismatch", func() {
		bad := &EmbeddedStory{NS: c.stories[1].NS + 1, MemIn: c.stories[1].MemIn, MemOut: c.stories[1].MemOut}
		c.model.PredictBatchInto(c.exs, 0, []*EmbeddedStory{c.stories[0], bad}, &bf, out)
	})

	// Empty batch is a no-op, not a panic.
	c.model.PredictBatchInto(nil, 0, nil, &bf, nil)
}

// TestPredictBatchAllocs: at steady state the batched pass allocates
// nothing — the flush boundary itself (queue plumbing) is outside this
// measurement, the model math is inside it.
func TestPredictBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(9))
	c := randBatchCase(t, rng, 8)
	var bf BatchForward
	out := make([]int, len(c.exs))
	c.model.PredictBatchInto(c.exs, c.th, c.stories, &bf, out) // warm buffers
	allocs := testing.AllocsPerRun(50, func() {
		c.model.PredictBatchInto(c.exs, c.th, c.stories, &bf, out)
	})
	if allocs != 0 {
		t.Errorf("batched predict allocates %v per batch, want 0", allocs)
	}
}

// TestPredictBatchInstrumentedAllocs: turning instrumentation on must
// not cost allocations either — the stage timers write into the
// caller's accumulators, nothing else.
func TestPredictBatchInstrumentedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(10))
	c := randBatchCase(t, rng, 8)
	var bf BatchForward
	var ins Instrumentation
	out := make([]int, len(c.exs))
	c.model.PredictBatchInstrumented(c.exs, c.th, ExitPolicy{}, c.stories, &bf, &ins, out) // warm buffers
	allocs := testing.AllocsPerRun(50, func() {
		ins.Reset()
		c.model.PredictBatchInstrumented(c.exs, c.th, ExitPolicy{}, c.stories, &bf, &ins, out)
	})
	if allocs != 0 {
		t.Errorf("instrumented batched predict allocates %v per batch, want 0", allocs)
	}
	if ins.TotalRows == 0 {
		t.Error("instrumentation did not record any rows")
	}
}

// TestPredictBatchParallelEquivalence: dispatching story groups across
// scheduler workers must not change a single bit — each group's
// per-question operation order is untouched, only which worker runs it.
func TestPredictBatchParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 40; iter++ {
		batch := 1 + rng.Intn(12)
		c := randBatchCase(t, rng, batch)

		var serial BatchForward
		out := make([]int, batch)
		c.model.PredictBatchInto(c.exs, c.th, c.stories, &serial, out)

		for _, p := range []int{1, 2, 4, 8} {
			pool := tensor.NewPool(p)
			c.model.SetParallel(pool)
			var bf BatchForward
			pout := make([]int, batch)
			c.model.PredictBatchInto(c.exs, c.th, c.stories, &bf, pout)
			for q := 0; q < batch; q++ {
				if pout[q] != out[q] {
					t.Fatalf("iter %d P=%d q %d: answer %d, serial %d", iter, p, q, pout[q], out[q])
				}
				got, want := bf.Logits(q), serial.Logits(q)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("iter %d P=%d q %d: logit %d = %x, serial %x (not bit-identical)",
							iter, p, q, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
			pool.Close()
		}
	}
}

// TestPredictBatchParallelAllocs: the scheduler dispatch must keep the
// batched pass allocation-free at steady state.
func TestPredictBatchParallelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(14))
	c := randBatchCase(t, rng, 8)
	pool := tensor.NewPool(4)
	defer pool.Close()
	c.model.SetParallel(pool)
	var bf BatchForward
	out := make([]int, len(c.exs))
	c.model.PredictBatchInto(c.exs, c.th, c.stories, &bf, out) // warm buffers
	allocs := testing.AllocsPerRun(50, func() {
		c.model.PredictBatchInto(c.exs, c.th, c.stories, &bf, out)
	})
	if allocs != 0 {
		t.Errorf("parallel batched predict allocates %v per batch, want 0", allocs)
	}
}
