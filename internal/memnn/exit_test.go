package memnn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mnnfast/internal/babi"
	"mnnfast/internal/tensor"
)

// ExitStats summarizes a gated evaluation sweep at one policy: how
// often the gate fired per hop, the mean hops executed, and the answer
// agreement with the full (gate-off) path — the threshold-vs-accuracy
// methodology of EXPERIMENTS.md Fig 6/7 applied to hops instead of
// attention rows.
type ExitStats struct {
	Policy     ExitPolicy
	Questions  int
	Agreement  float64 // fraction answering exactly as the full path
	MeanHops   float64 // mean hops executed under the gate
	MaxHops    int     // model hop count (the gate-off cost)
	ExitsByHop []int64 // ExitsByHop[h-1] = questions that answered after h hops
}

// EvaluateExit runs examples through the gated and the full path and
// reports agreement and hop savings. Evaluation-only (allocates).
//
//mnnfast:coldpath
func (m *Model) EvaluateExit(examples []Example, skipThreshold float32, policy ExitPolicy) ExitStats {
	st := ExitStats{
		Policy:     policy,
		Questions:  len(examples),
		MaxHops:    m.Cfg.Hops,
		ExitsByHop: make([]int64, m.Cfg.Hops),
	}
	if len(examples) == 0 {
		return st
	}
	var f, full Forward
	agree, hops := 0, 0
	for _, ex := range examples {
		gated := m.PredictGated(ex, skipThreshold, policy, &f, nil, nil)
		want := m.PredictGated(ex, skipThreshold, ExitPolicy{}, &full, nil, nil)
		if gated == want {
			agree++
		}
		hops += f.ExitHop
		st.ExitsByHop[f.ExitHop-1]++
	}
	st.Agreement = float64(agree) / float64(len(examples))
	st.MeanHops = float64(hops) / float64(len(examples))
	return st
}

// Trained 3-hop fixture shared by the exit tests: the gate needs a
// model whose per-hop confidences actually spread out, which random
// weights do not provide.
var (
	exitOnce   sync.Once
	exitModel  *Model
	exitCorpus *Corpus
)

func exitFixture(t testing.TB) (*Model, *Corpus) {
	t.Helper()
	exitOnce.Do(func() {
		opt := babi.GenOptions{Stories: 300, StoryLen: 8, People: 3, Locations: 3}
		d := babi.Generate(babi.TaskSingleFact, opt, rand.New(rand.NewSource(21)))
		train, test := d.Split(0.85)
		c := BuildCorpus(train, test, 0)
		m, err := NewModel(Config{
			Dim: 20, Hops: 3,
			Vocab:   c.Vocab.Size(),
			Answers: len(c.Answers),
			MaxSent: c.MaxSent,
		}, rand.New(rand.NewSource(21)))
		if err != nil {
			panic(err)
		}
		topt := DefaultTrainOptions()
		topt.Epochs = 25
		if _, err := m.Train(c.Train, topt); err != nil {
			panic(err)
		}
		exitModel, exitCorpus = m, c
	})
	return exitModel, exitCorpus
}

// TestExitNeverFire pins the armed-but-unfireable leg of the contract:
// confidence scores live in [0, 1], so any threshold above 1 (and +Inf
// in particular) must run every hop and agree with the full path on
// every question, for every metric.
func TestExitNeverFire(t *testing.T) {
	m, c := exitFixture(t)
	for _, metric := range []ExitMetric{ExitMargin, ExitMaxProb, ExitAttnMax} {
		for _, th := range []float32{1.5, float32(math.Inf(1))} {
			st := m.EvaluateExit(c.Test, 0, ExitPolicy{Metric: metric, Threshold: th})
			if st.Agreement != 1.0 {
				t.Errorf("%s th=%v: agreement %v, want 1.0", metric, th, st.Agreement)
			}
			if st.MeanHops != float64(st.MaxHops) {
				t.Errorf("%s th=%v: mean hops %v, want %d (no exits)", metric, th, st.MeanHops, st.MaxHops)
			}
			for h := 0; h < st.MaxHops-1; h++ {
				if st.ExitsByHop[h] != 0 {
					t.Errorf("%s th=%v: %d exits after hop %d with an unfireable threshold", metric, th, st.ExitsByHop[h], h+1)
				}
			}
		}
	}
}

// TestExitThresholdMonotonicity is the threshold–accuracy sweep: mean
// hops are nondecreasing in the threshold (an exact guarantee — the
// gate never mutates hop state, so each question's confidence sequence
// is threshold-independent and its exit hop is min{h : conf_h >= T}),
// and on this fixed seed the answer agreement is nondecreasing too. At
// some threshold the gate must actually save hops.
func TestExitThresholdMonotonicity(t *testing.T) {
	m, c := exitFixture(t)
	thresholds := []float32{0.2, 0.4, 0.6, 0.8, 0.9, 0.99, 1.5}
	var stats []ExitStats
	for _, th := range thresholds {
		stats = append(stats, m.EvaluateExit(c.Test, 0, ExitPolicy{Metric: ExitMargin, Threshold: th}))
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].MeanHops < stats[i-1].MeanHops {
			t.Errorf("mean hops dropped from %v to %v as threshold rose %v -> %v",
				stats[i-1].MeanHops, stats[i].MeanHops, thresholds[i-1], thresholds[i])
		}
		if stats[i].Agreement < stats[i-1].Agreement {
			t.Errorf("agreement dropped from %v to %v as threshold rose %v -> %v",
				stats[i-1].Agreement, stats[i].Agreement, thresholds[i-1], thresholds[i])
		}
	}
	if last := stats[len(stats)-1]; last.Agreement != 1.0 {
		t.Errorf("unfireable threshold: agreement %v, want 1.0", last.Agreement)
	}
	if first := stats[0]; first.MeanHops >= float64(first.MaxHops) {
		t.Errorf("threshold %v never saved a hop (mean %v of %d); gate is inert on a trained model",
			thresholds[0], first.MeanHops, first.MaxHops)
	}
}

// TestExitInactivePolicyBitIdentical: a policy that cannot act — a
// non-positive threshold, or no eligible hop before the last — must be
// the zero policy's ungated pass, bit for bit.
func TestExitInactivePolicyBitIdentical(t *testing.T) {
	m, c := exitFixture(t)
	var f, g Forward
	for _, policy := range []ExitPolicy{
		{Metric: ExitMaxProb, Threshold: 0, MinHops: 1, Fallback: 0.5},
		{Metric: ExitAttnMax, Threshold: -1},
		{Metric: ExitMargin, Threshold: 0.01, MinHops: m.Cfg.Hops},
	} {
		for i, ex := range c.Test {
			want := m.ApplyGated(ex, 0.01, ExitPolicy{}, &f, nil, nil)
			got := m.ApplyGated(ex, 0.01, policy, &g, nil, nil)
			if got.ExitHop != m.Cfg.Hops {
				t.Fatalf("q %d: policy %+v exit hop %d, want %d", i, policy, got.ExitHop, m.Cfg.Hops)
			}
			for j := range want.Logits {
				if math.Float32bits(got.Logits[j]) != math.Float32bits(want.Logits[j]) {
					t.Fatalf("q %d logit %d: policy %+v %x != ungated %x", i, j, policy,
						math.Float32bits(got.Logits[j]), math.Float32bits(want.Logits[j]))
				}
			}
		}
	}
}

// TestExitFallbackCommits: with Fallback == Threshold every question
// either exits at the first eligible hop or commits to the full path,
// so no exits can occur at intermediate hops — and committed questions
// answer exactly as the full path.
func TestExitFallbackCommits(t *testing.T) {
	m, c := exitFixture(t)
	policy := ExitPolicy{Metric: ExitMargin, Threshold: 0.8, Fallback: 0.8, MinHops: 1}
	st := m.EvaluateExit(c.Test, 0, policy)
	for h := policy.MinHops + 1; h < st.MaxHops; h++ {
		if st.ExitsByHop[h-1] != 0 {
			t.Errorf("%d exits after hop %d; fallback == threshold must commit every non-exiting question at hop %d",
				st.ExitsByHop[h-1], h, policy.MinHops)
		}
	}

	// Committed questions are bit-identical to the ungated pass.
	var f, g Forward
	for i, ex := range c.Test {
		got := m.ApplyGated(ex, 0, policy, &g, nil, nil)
		if got.ExitHop != m.Cfg.Hops {
			continue // exited at MinHops; covered by the shedding tests
		}
		want := m.ApplyGated(ex, 0, ExitPolicy{}, &f, nil, nil)
		for j := range want.Logits {
			if math.Float32bits(got.Logits[j]) != math.Float32bits(want.Logits[j]) {
				t.Fatalf("q %d logit %d: committed %x != ungated %x", i, j,
					math.Float32bits(got.Logits[j]), math.Float32bits(want.Logits[j]))
			}
		}
	}
}

// TestExitBatchShedBitIdentical is the batch-shedding property: in a
// batch mixing early-exiting and full-hop questions (with shared story
// groups), every question's logits and exit hop must be bit-identical
// to its own unbatched gated run — shed or not, at any worker count.
func TestExitBatchShedBitIdentical(t *testing.T) {
	m, c := exitFixture(t)
	exs := c.Test
	if len(exs) > 24 {
		exs = exs[:24]
	}
	// Embed one story per question, then alias every third story to its
	// neighbor so multi-question groups occur.
	stories := make([]*EmbeddedStory, len(exs))
	batch := make([]Example, len(exs))
	copy(batch, exs)
	for i := range batch {
		es := new(EmbeddedStory)
		m.EmbedStoryInto(Example{Sentences: batch[i].Sentences}, es)
		stories[i] = es
		if i%3 == 2 {
			batch[i].Sentences = batch[i-1].Sentences
			stories[i] = stories[i-1]
		}
	}

	for _, metric := range []ExitMetric{ExitMargin, ExitMaxProb, ExitAttnMax} {
		for _, th := range []float32{0.3, 0.6, 0.9} {
			policy := ExitPolicy{Metric: metric, Threshold: th, MinHops: 1}
			for _, p := range []int{0, 2, 4} {
				if p > 0 {
					pool := tensor.NewPool(p)
					m.SetParallel(pool)
					defer pool.Close()
				} else {
					m.SetParallel(nil)
				}
				var bf BatchForward
				out := make([]int, len(batch))
				m.PredictBatch(batch, 0.01, policy, stories, &bf, nil, out)

				sawShed, sawFull := false, false
				var f Forward
				for q := range batch {
					want := m.ApplyGated(batch[q], 0.01, policy, &f, stories[q], nil)
					if got := bf.ExitHop(q); got != want.ExitHop {
						t.Fatalf("%s th=%v P=%d q %d: batched exit hop %d, unbatched %d", metric, th, p, q, got, want.ExitHop)
					}
					if want.ExitHop < m.Cfg.Hops {
						sawShed = true
					} else {
						sawFull = true
					}
					got := bf.Logits(q)
					for j := range want.Logits {
						if math.Float32bits(got[j]) != math.Float32bits(want.Logits[j]) {
							t.Fatalf("%s th=%v P=%d q %d logit %d: batched %x != unbatched %x (not bit-identical)",
								metric, th, p, q, j, math.Float32bits(got[j]), math.Float32bits(want.Logits[j]))
						}
					}
					if got := out[q]; got != want.Logits.ArgMax() {
						t.Fatalf("%s th=%v P=%d q %d: answer %d, want %d", metric, th, p, q, got, want.Logits.ArgMax())
					}
				}
				if metric == ExitMargin && th == 0.3 && p == 0 && (!sawShed || !sawFull) {
					t.Errorf("th=%v batch was not mixed (shed=%v full=%v); pick a threshold that splits it", th, sawShed, sawFull)
				}
			}
		}
	}
	m.SetParallel(nil)
}

// TestExitBatchGatedAllocs: arming the gate must not break the batched
// path's zero-allocation steady state.
func TestExitBatchGatedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, c := exitFixture(t)
	exs := c.Test[:8]
	stories := make([]*EmbeddedStory, len(exs))
	for i := range exs {
		stories[i] = new(EmbeddedStory)
		m.EmbedStoryInto(Example{Sentences: exs[i].Sentences}, stories[i])
	}
	policy := ExitPolicy{Metric: ExitMargin, Threshold: 0.6, MinHops: 1}
	var bf BatchForward
	out := make([]int, len(exs))
	m.PredictBatch(exs, 0.01, policy, stories, &bf, nil, out) // warm buffers
	allocs := testing.AllocsPerRun(50, func() {
		m.PredictBatch(exs, 0.01, policy, stories, &bf, nil, out)
	})
	if allocs != 0 {
		t.Errorf("gated batched predict allocates %v per batch, want 0", allocs)
	}
}

// TestExitPolicyValidate exercises the advisory validation.
func TestExitPolicyValidate(t *testing.T) {
	if err := (ExitPolicy{Metric: ExitMargin, Threshold: 0.5}).Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	if err := (ExitPolicy{Metric: numExitMetrics, Threshold: 0.5}).Validate(); err == nil {
		t.Error("unknown metric accepted")
	}
	if err := (ExitPolicy{Metric: ExitMargin, Threshold: float32(math.NaN())}).Validate(); err == nil {
		t.Error("NaN threshold accepted")
	}
}

// TestAnswerConfidence pins the metric arithmetic on a crafted
// distribution.
func TestAnswerConfidence(t *testing.T) {
	probs := tensor.Vector{0.1, 0.6, 0.25, 0.05}
	if got := answerConfidence(ExitMaxProb, probs); got != 0.6 {
		t.Errorf("maxprob = %v, want 0.6", got)
	}
	if got := answerConfidence(ExitMargin, probs); math.Abs(float64(got-0.35)) > 1e-7 {
		t.Errorf("margin = %v, want 0.35", got)
	}
}

// TestParseExitMetric round-trips every metric name.
func TestParseExitMetric(t *testing.T) {
	for _, m := range []ExitMetric{ExitMargin, ExitMaxProb, ExitAttnMax} {
		got, err := ParseExitMetric(m.String())
		if err != nil || got != m {
			t.Errorf("ParseExitMetric(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseExitMetric("entropy"); err == nil {
		t.Error("unknown metric name accepted")
	}
}

// FuzzExitPolicy drives the gate with arbitrary threshold/metric/
// min-hop/fallback bits over a small random model: no input may panic,
// the exit hop must stay in [1, hops], and whenever the gate cannot
// fire (disabled, NaN, or above the confidence ceiling) the logits
// must be bit-identical to the full path.
func FuzzExitPolicy(f *testing.F) {
	f.Add(uint32(0x3F000000), uint8(0), 1, uint32(0), int64(1))           // th=0.5 margin
	f.Add(uint32(0x3F800000), uint8(1), 0, uint32(0x3F000000), int64(2))  // th=1 maxprob fb=0.5
	f.Add(uint32(0x7F800000), uint8(2), 2, uint32(0), int64(3))           // th=+Inf attnmax
	f.Add(uint32(0x7FC00000), uint8(0), -3, uint32(0x7FC00000), int64(4)) // NaN everywhere
	f.Add(uint32(0), uint8(255), 100, uint32(0xFF800000), int64(5))       // disabled, junk metric, -Inf fallback
	f.Fuzz(func(t *testing.T, thBits uint32, metric uint8, minHops int, fbBits uint32, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Dim:     4 + rng.Intn(6),
			Hops:    1 + rng.Intn(3),
			Vocab:   8 + rng.Intn(8),
			Answers: 2 + rng.Intn(4),
			MaxSent: 6,
		}
		m, err := NewModel(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		policy := ExitPolicy{
			Metric:    ExitMetric(metric),
			Threshold: math.Float32frombits(thBits),
			MinHops:   minHops,
			Fallback:  math.Float32frombits(fbBits),
		}
		sentences := make([][]int, 1+rng.Intn(5))
		for i := range sentences {
			sentences[i] = randWords(rng, cfg.Vocab, 4)
		}
		ex := Example{Sentences: sentences, Question: randWords(rng, cfg.Vocab, 4)}

		var g Forward
		got := m.ApplyGated(ex, 0.01, policy, &g, nil, nil)
		if got.ExitHop < 1 || got.ExitHop > cfg.Hops {
			t.Fatalf("exit hop %d outside [1, %d]", got.ExitHop, cfg.Hops)
		}

		th := policy.Threshold
		canFire := th > 0 && th <= 1 // confidences live in [0, 1]; NaN fails both
		if !canFire {
			if got.ExitHop != cfg.Hops {
				t.Fatalf("exit hop %d with unfireable threshold %v", got.ExitHop, th)
			}
			var f Forward
			want := m.ApplyGated(ex, 0.01, ExitPolicy{}, &f, nil, nil)
			for j := range want.Logits {
				if math.Float32bits(got.Logits[j]) != math.Float32bits(want.Logits[j]) {
					t.Fatalf("logit %d: gated %x != full %x under unfireable policy %+v", j,
						math.Float32bits(got.Logits[j]), math.Float32bits(want.Logits[j]), policy)
				}
			}
		}
	})
}
