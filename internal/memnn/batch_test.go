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
		c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, nil, out)

		var f Forward
		for q := range c.exs {
			want := c.model.ApplyGated(c.exs[q], c.th, ExitPolicy{}, &f, c.stories[q], nil)
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

// TestSelfEmbeddingMatchesCachedStory pins the other half of the chain:
// a pass given no cached story embeds it — and, under top-k, indexes
// it — into the Forward's own EmbeddedStory, and is then bit-identical
// to the same question over a story the caller built beforehand: the
// logits, the hop an armed gate exits at, and the rows a top-k probe
// scores and keeps. So batched answers equal the from-scratch
// single-question pass too.
func TestSelfEmbeddingMatchesCachedStory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	policies := []ExitPolicy{
		{},
		{Metric: ExitMargin, Threshold: 0.2},
		{Metric: ExitMaxProb, Threshold: 0.5, Fallback: 0.2},
		{Metric: ExitAttnMax, Threshold: 0.3},
	}
	early, probed := 0, int64(0)
	for iter := 0; iter < 120; iter++ {
		var c batchCase
		if iter%2 == 0 {
			c = randBatchCase(t, rng, 1)
		} else {
			c = batchCase(randTopKCase(t, rng, 1, TopKConfig{
				Enabled: true, MinRows: 1, K: 1 + rng.Intn(12), NProbe: 1 + rng.Intn(4),
			}))
		}
		policy := policies[iter/2%len(policies)]
		var f, f2 Forward
		var insCached, insOwn Instrumentation
		cached := c.model.ApplyGated(c.exs[0], c.th, policy, &f, c.stories[0], &insCached)
		own := c.model.ApplyGated(c.exs[0], c.th, policy, &f2, nil, &insOwn)
		if own.ExitHop != cached.ExitHop {
			t.Fatalf("iter %d policy %+v: self-embedding pass exits after hop %d, cached %d", iter, policy, own.ExitHop, cached.ExitHop)
		}
		for i := range cached.Logits {
			if math.Float32bits(cached.Logits[i]) != math.Float32bits(own.Logits[i]) {
				t.Fatalf("iter %d policy %+v: cached logit %d = %x, self-embedded %x", iter, policy, i,
					math.Float32bits(cached.Logits[i]), math.Float32bits(own.Logits[i]))
			}
		}
		if insOwn.ProbedRows != insCached.ProbedRows || insOwn.CandRows != insCached.CandRows || insOwn.SkippedRows != insCached.SkippedRows {
			t.Fatalf("iter %d: self-embedding pass probed/kept/skipped %d/%d/%d rows, cached %d/%d/%d", iter,
				insOwn.ProbedRows, insOwn.CandRows, insOwn.SkippedRows, insCached.ProbedRows, insCached.CandRows, insCached.SkippedRows)
		}
		if own.ExitHop < c.model.Cfg.Hops {
			early++
		}
		probed += insOwn.ProbedRows
	}
	if early == 0 || probed == 0 {
		t.Errorf("vacuous: %d early exits, %d rows probed through an own index", early, probed)
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
	c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, &ins, out)

	var want Instrumentation
	var f Forward
	for q := range c.exs {
		c.model.ApplyGated(c.exs[q], c.th, ExitPolicy{}, &f, c.stories[q], &want)
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
		c.model.PredictBatch(c.exs, 0, ExitPolicy{}, c.stories[:1], &bf, nil, out)
	})
	mustPanic("nil story", func() {
		c.model.PredictBatch(c.exs, 0, ExitPolicy{}, []*EmbeddedStory{c.stories[0], nil}, &bf, nil, out)
	})
	mustPanic("NS mismatch", func() {
		bad := &EmbeddedStory{NS: c.stories[1].NS + 1, MemIn: c.stories[1].MemIn, MemOut: c.stories[1].MemOut}
		c.model.PredictBatch(c.exs, 0, ExitPolicy{}, []*EmbeddedStory{c.stories[0], bad}, &bf, nil, out)
	})

	// Empty batch is a no-op, not a panic.
	c.model.PredictBatch(nil, 0, ExitPolicy{}, nil, &bf, nil, nil)
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
	c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, nil, out) // warm buffers
	allocs := testing.AllocsPerRun(50, func() {
		c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, nil, out)
	})
	if allocs != 0 {
		t.Errorf("batched predict allocates %v per batch, want 0", allocs)
	}
}

// TestPredictBatchTimedAllocs: turning instrumentation on must
// not cost allocations either — the stage timers write into the
// caller's accumulators, nothing else.
func TestPredictBatchTimedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(10))
	c := randBatchCase(t, rng, 8)
	var bf BatchForward
	var ins Instrumentation
	out := make([]int, len(c.exs))
	c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, &ins, out) // warm buffers
	allocs := testing.AllocsPerRun(50, func() {
		ins.Reset()
		c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, &ins, out)
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
		c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &serial, nil, out)

		for _, p := range []int{1, 2, 4, 8} {
			pool := tensor.NewPool(p)
			c.model.SetParallel(pool)
			var bf BatchForward
			pout := make([]int, batch)
			c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, nil, pout)
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
	c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, nil, out) // warm buffers
	allocs := testing.AllocsPerRun(50, func() {
		c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, nil, out)
	})
	if allocs != 0 {
		t.Errorf("parallel batched predict allocates %v per batch, want 0", allocs)
	}
}
