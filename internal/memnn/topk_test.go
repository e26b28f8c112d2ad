package memnn

import (
	"math"
	"math/rand"
	"testing"

	"mnnfast/internal/sparse"
)

// topkCase is a model with topk armed plus one embedded, indexed story
// and a batch of questions against it.
type topkCase struct {
	model   *Model
	exs     []Example
	stories []*EmbeddedStory
	th      float32
}

func randTopKCase(t *testing.T, rng *rand.Rand, batch int, cfgTopK TopKConfig) topkCase {
	t.Helper()
	cfg := Config{
		Dim:      4 + rng.Intn(12),
		Hops:     1 + rng.Intn(3),
		Vocab:    8 + rng.Intn(24),
		Answers:  2 + rng.Intn(8),
		MaxSent:  64,
		Position: rng.Intn(2) == 0,
		Tying:    Tying(rng.Intn(2)),
	}
	model, err := NewModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	model.SetTopK(cfgTopK)

	nStories := 1 + rng.Intn(3)
	type story struct {
		sentences [][]int
		es        *EmbeddedStory
	}
	ss := make([]story, nStories)
	for i := range ss {
		ns := 8 + rng.Intn(cfg.MaxSent-8)
		sentences := make([][]int, ns)
		for j := range sentences {
			sentences[j] = randWords(rng, cfg.Vocab, 6)
		}
		es := new(EmbeddedStory)
		model.EmbedStoryInto(Example{Sentences: sentences}, es)
		model.BuildStoryIndex(es)
		ss[i] = story{sentences: sentences, es: es}
	}

	c := topkCase{model: model}
	if rng.Intn(2) == 0 {
		c.th = float32(rng.Float64() * 0.05)
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

// TestTopKFullProbeMatchesExact pins the degeneration contract at the
// model level: with every list probed, no top-k cut and no zero-skip
// (the two hops test different quantities against the threshold), the
// topk hop evaluates the exact hop's equations on the same rows, so
// the logits agree within reorderTol — the gather normalises before
// the weighted sum, the exact hop after it.
func TestTopKFullProbeMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for caseN := 0; caseN < 40; caseN++ {
		c := randTopKCase(t, rng, 1, TopKConfig{
			Enabled: true,
			MinRows: 1,
			// NProbe above any plausible list count = probe everything;
			// K 0 = keep everything.
			NProbe: 1 << 20,
		})
		ex, es := c.exs[0], c.stories[0]
		var fTop, fExact Forward
		var ins Instrumentation

		got := c.model.ApplyGated(ex, 0, ExitPolicy{}, &fTop, es, &ins)
		if ins.ProbedRows != int64(es.NS)*int64(c.model.Cfg.Hops) {
			t.Fatalf("case %d: full probe scored %d rows, want %d", caseN, ins.ProbedRows, es.NS*c.model.Cfg.Hops)
		}

		c.model.SetTopK(TopKConfig{}) // exact path, same cached story
		want := c.model.ApplyGated(ex, 0, ExitPolicy{}, &fExact, es, nil)
		assertReordered(t, "full-probe topk vs exact", got.Logits, want.Logits)
	}
}

// TestTopKBatchedMatchesUnbatched pins the batch contract under
// approximate attention: for narrow probes and real top-k cuts, every
// question of a batched pass answers bit-identically to the same
// question running unbatched against the same index.
func TestTopKBatchedMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	var bf BatchForward
	for caseN := 0; caseN < 60; caseN++ {
		batch := 1 + rng.Intn(8)
		c := randTopKCase(t, rng, batch, TopKConfig{
			Enabled: true,
			MinRows: 1,
			K:       1 + rng.Intn(12),
			NProbe:  1 + rng.Intn(4),
		})
		out := make([]int, batch)
		var insB Instrumentation
		c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, &insB, out)
		if insB.ProbedRows == 0 {
			t.Fatalf("case %d: batched topk pass probed nothing", caseN)
		}

		var f Forward
		var insU Instrumentation
		for q := range c.exs {
			want := c.model.ApplyGated(c.exs[q], c.th, ExitPolicy{}, &f, c.stories[q], &insU)
			got := bf.Logits(q)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want.Logits[i]) {
					t.Fatalf("case %d q %d: logit %d = %x, want %x (batched topk not bit-identical)",
						caseN, q, i, math.Float32bits(got[i]), math.Float32bits(want.Logits[i]))
				}
			}
		}
		if insB.ProbedRows != insU.ProbedRows || insB.CandRows != insU.CandRows ||
			insB.SkippedRows != insU.SkippedRows || insB.TotalRows != insU.TotalRows {
			t.Fatalf("case %d: batched counters {probed %d cand %d skip %d rows %d} != unbatched {%d %d %d %d}",
				caseN, insB.ProbedRows, insB.CandRows, insB.SkippedRows, insB.TotalRows,
				insU.ProbedRows, insU.CandRows, insU.SkippedRows, insU.TotalRows)
		}
	}
}

// TestTopKGatedBatchedMatchesUnbatched runs the gate on top of topk
// attention: exit hops and logits must agree bit-for-bit between the
// batched and unbatched gated passes.
func TestTopKGatedBatchedMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var bf BatchForward
	for caseN := 0; caseN < 40; caseN++ {
		batch := 1 + rng.Intn(8)
		c := randTopKCase(t, rng, batch, TopKConfig{
			Enabled: true,
			MinRows: 1,
			K:       1 + rng.Intn(12),
			NProbe:  1 + rng.Intn(4),
		})
		if c.model.Cfg.Hops < 2 {
			continue
		}
		policy := ExitPolicy{
			Metric:    ExitMetric(rng.Intn(int(numExitMetrics))),
			Threshold: float32(rng.Float64()),
		}
		out := make([]int, batch)
		c.model.PredictBatch(c.exs, c.th, policy, c.stories, &bf, nil, out)

		var f Forward
		for q := range c.exs {
			want := c.model.ApplyGated(c.exs[q], c.th, policy, &f, c.stories[q], nil)
			if bf.ExitHop(q) != want.ExitHop {
				t.Fatalf("case %d q %d: batched exit hop %d, unbatched %d", caseN, q, bf.ExitHop(q), want.ExitHop)
			}
			got := bf.Logits(q)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want.Logits[i]) {
					t.Fatalf("case %d q %d: gated logit %d differs", caseN, q, i)
				}
			}
		}
	}
}

// TestBuildStoryIndexFallback pins the exact-fallback rule: stories
// below MinRows build no index and run the exact path untouched.
func TestBuildStoryIndexFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	cfg := Config{Dim: 8, Hops: 2, Vocab: 16, Answers: 4, MaxSent: 32}
	m, err := NewModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTopK(TopKConfig{Enabled: true, K: 4, NProbe: 1, MinRows: 16})

	sentences := make([][]int, 8) // below the 16-row floor
	for j := range sentences {
		sentences[j] = randWords(rng, cfg.Vocab, 4)
	}
	ex := Example{Sentences: sentences, Question: randWords(rng, cfg.Vocab, 4)}
	es := new(EmbeddedStory)
	m.EmbedStoryInto(ex, es)
	if m.BuildStoryIndex(es) {
		t.Fatal("BuildStoryIndex indexed a story below MinRows")
	}
	if len(es.Index) != 0 {
		t.Fatalf("fallback left %d indices", len(es.Index))
	}

	var f, fExact Forward
	var ins Instrumentation
	got := m.ApplyGated(ex, 0, ExitPolicy{}, &f, es, &ins)
	if ins.ProbedRows != 0 || ins.CandRows != 0 {
		t.Fatalf("fallback story still probed: %+v", ins)
	}
	m.SetTopK(TopKConfig{})
	want := m.ApplyGated(ex, 0, ExitPolicy{}, &fExact, es, nil)
	for i := range want.Logits {
		if math.Float32bits(got.Logits[i]) != math.Float32bits(want.Logits[i]) {
			t.Fatal("fallback path differs from exact")
		}
	}
}

// TestEmbedStoryIntoInvalidatesIndex: re-embedding moves the rows, so
// the cached index must not survive it.
func TestEmbedStoryIntoInvalidatesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	cfg := Config{Dim: 8, Hops: 2, Vocab: 16, Answers: 4, MaxSent: 64}
	m, err := NewModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTopK(TopKConfig{Enabled: true, MinRows: 1})

	sentences := make([][]int, 24)
	for j := range sentences {
		sentences[j] = randWords(rng, cfg.Vocab, 4)
	}
	ex := Example{Sentences: sentences}
	es := new(EmbeddedStory)
	m.EmbedStoryInto(ex, es)
	if !m.BuildStoryIndex(es) {
		t.Fatal("BuildStoryIndex declined an eligible story")
	}
	if len(es.Index) != cfg.Hops {
		t.Fatalf("built %d indices, want %d", len(es.Index), cfg.Hops)
	}
	m.EmbedStoryInto(ex, es)
	if len(es.Index) != 0 {
		t.Fatal("EmbedStoryInto kept a stale index")
	}
	if m.topkIndex(es, 0) != nil {
		t.Fatal("topkIndex returned a stale index")
	}
}

// TestBuildStoryIndexLayerwiseShares: with layer-wise tying every hop
// embeds with the same tables, so the index is built once and shared.
func TestBuildStoryIndexLayerwiseShares(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	cfg := Config{Dim: 8, Hops: 3, Vocab: 16, Answers: 4, MaxSent: 64, Tying: TyingLayerwise}
	m, err := NewModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTopK(TopKConfig{Enabled: true, MinRows: 1})
	sentences := make([][]int, 20)
	for j := range sentences {
		sentences[j] = randWords(rng, cfg.Vocab, 4)
	}
	es := new(EmbeddedStory)
	m.EmbedStoryInto(Example{Sentences: sentences}, es)
	m.BuildStoryIndex(es)
	for k := 1; k < cfg.Hops; k++ {
		if es.Index[k] != es.Index[0] {
			t.Fatalf("layerwise hop %d built its own index", k)
		}
	}
}

// TestTopKSteadyStateAllocs: the topk forward path allocates nothing
// once the Forward and the probe scratch pool are warm.
func TestTopKSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := Config{Dim: 16, Hops: 3, Vocab: 32, Answers: 8, MaxSent: 128}
	m, err := NewModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTopK(TopKConfig{Enabled: true, K: 8, NProbe: 2, MinRows: 1})
	sentences := make([][]int, 100)
	for j := range sentences {
		sentences[j] = randWords(rng, cfg.Vocab, 6)
	}
	ex := Example{Sentences: sentences, Question: randWords(rng, cfg.Vocab, 5)}
	es := new(EmbeddedStory)
	m.EmbedStoryInto(ex, es)
	m.BuildStoryIndex(es)

	var f Forward
	var ins Instrumentation
	run := func() { m.PredictGated(ex, 0.001, ExitPolicy{}, &f, es, &ins) }
	run() // warm Forward buffers and scratch pools
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Errorf("topk forward allocates %v per op at steady state", a)
	}
	if ins.ProbedRows == 0 || ins.CandRows == 0 {
		t.Fatalf("topk pass recorded no probe work: %+v", ins)
	}
}

// TestTopKNarrowProbeTouchesFewerRows: the point of the mode — an
// indexed story with a narrow probe considers far fewer weighted-sum
// rows than the story holds.
func TestTopKNarrowProbeTouchesFewerRows(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	cfg := Config{Dim: 16, Hops: 2, Vocab: 32, Answers: 8, MaxSent: 256}
	m, err := NewModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTopK(TopKConfig{
		Enabled: true, K: 8, NProbe: 1, MinRows: 1,
		Index: sparse.IndexOptions{NList: 16},
	})
	sentences := make([][]int, 256)
	for j := range sentences {
		sentences[j] = randWords(rng, cfg.Vocab, 6)
	}
	ex := Example{Sentences: sentences, Question: randWords(rng, cfg.Vocab, 5)}
	es := new(EmbeddedStory)
	m.EmbedStoryInto(ex, es)
	m.BuildStoryIndex(es)

	var f Forward
	var ins Instrumentation
	m.ApplyGated(ex, 0, ExitPolicy{}, &f, es, &ins)
	if ins.CandRows > int64(cfg.Hops)*16 {
		t.Fatalf("K=8 kept %d rows over %d hops", ins.CandRows, cfg.Hops)
	}
	if ins.ProbedRows >= int64(cfg.Hops)*256 {
		t.Fatalf("narrow probe scored every row (%d)", ins.ProbedRows)
	}
	if ins.TotalRows != ins.CandRows {
		t.Fatalf("TotalRows %d != CandRows %d on a fully indexed pass", ins.TotalRows, ins.CandRows)
	}
}
