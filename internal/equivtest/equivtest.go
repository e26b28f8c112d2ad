// Package equivtest is the repo's reusable cross-engine equivalence
// harness: one table-driven sweep that runs a generated-bAbI question
// set through every inference engine configuration — {serial, parallel
// P∈1..8} × {batched, unbatched} × {kernel tiers} × {gate off, gate on
// with a threshold that can never fire} — and asserts the answer logits
// are BIT-IDENTICAL across all of them, and that every engine agrees
// with an independent float64 reference (Oracle) within OracleTol.
//
// It replaces the ad-hoc per-PR equivalence tests with a single sweep
// other packages can call from their own tests (Run takes a testing.TB),
// and pins the determinism contracts the repo's optimizations promise.
//
// Bit-identical, per tier — configurations of the one inference pass
// (memnn infer), which run the same kernels on the same operands in the
// same order:
//
//   - batched ≡ unbatched: the single-question entry points are that
//     pass over a batch of one, so this is independence from batch
//     composition — a question answers the same alone and in any batch
//     (memnn/batch.go)
//   - parallel ≡ serial at any worker count (internal/sched)
//   - a gate that cannot fire (threshold above every reachable
//     confidence) ≡ gate-off (memnn/exit.go)
//   - topk-enabled-but-unindexed ≡ exact, and narrow-probe topk
//     bit-identical across every engine configuration against its own
//     serial-unbatched baseline (internal/sparse, memnn/topk.go)
//
// Within OracleTol of the reference, without zero-skipping — engines
// that evaluate the same equations in different float32 orders:
//
//   - the inference hop (memnn attend: column chunks, lazy softmax),
//     at every kernel tier — so tier against tier is within twice the
//     bound
//   - the trainer's dense pass (Apply: full softmax, then the
//     weighted sum)
//   - topk with every list probed and no cut (softmax over the gathered
//     candidates, normalised before the weighted sum)
//
// These three were bit-identical to each other while inference ran the
// dense dataflow. The PR that moved inference to the lazy-softmax hop
// re-pinned them, once, from each other to the oracle: bit-identity
// between engines proved consistency, the bound proves correctness.
// They are compared at threshold 0 because they skip by different
// rules (attend tests the un-normalised exponential against the
// running sum, the others the normalised weight).
package equivtest

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"mnnfast/internal/babi"
	"mnnfast/internal/memnn"
	"mnnfast/internal/tensor"
)

// Options parameterizes a sweep; zero values take defaults sized for a
// CI-friendly run (a few seconds across all tiers).
type Options struct {
	Seed    int64 // model-init and dataset seed (default 1)
	Stories int   // generated stories per task (default 16)
	Hops    int   // model hop count (default 3)
	Dim     int   // embedding dimension (default 16)
	// Skip is the zero-skipping threshold applied everywhere; the
	// default 0.01 keeps the skip branch exercised.
	Skip float32
	// Workers lists the parallel worker counts to sweep (default
	// 1, 2, 4, 8); serial is always included.
	Workers []int
	// Tiers lists the kernel tiers to sweep (default: every tier
	// available on this host).
	Tiers []string
}

func (o *Options) norm() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Stories <= 0 {
		o.Stories = 16
	}
	if o.Hops <= 0 {
		o.Hops = 3
	}
	if o.Dim <= 0 {
		o.Dim = 16
	}
	if o.Skip == 0 {
		o.Skip = 0.01
	}
	if o.Workers == nil {
		o.Workers = []int{1, 2, 4, 8}
	}
	if o.Tiers == nil {
		o.Tiers = tensor.KernelTiers()
	}
}

// OracleTol is the stated bound between any engine and the float64
// reference: per logit, |engine − oracle| <= OracleTol·(1 + max|oracle|).
// The worst case the default and deep sweeps measure, over every tier,
// is below 2e-7 (float32 has a 6e-8 unit roundoff; the fixtures are
// 3-4 hops over stories of a dozen sentences).
const OracleTol = 2e-6

// oracleMismatch describes the first logit of got outside OracleTol of
// the reference logits want, or returns "" when got is within the bound.
func oracleMismatch(got tensor.Vector, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d logits, oracle has %d", len(got), len(want))
	}
	var scale float64
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	bound := OracleTol * (1 + scale)
	for i := range got {
		if diff := math.Abs(float64(got[i]) - want[i]); !(diff <= bound) {
			return fmt.Sprintf("logit %d = %v, oracle %v (off by %.3g, bound %.3g)", i, got[i], want[i], diff, bound)
		}
	}
	return ""
}

// neverFire is an exit threshold no confidence score can reach
// (confidences live in [0, 1]), arming the gate without letting it
// fire — the gated-but-ran-all-hops leg of the determinism contract.
func neverFire() float32 { return float32(math.Inf(1)) }

// exitMetrics enumerates every gate metric the sweep arms.
var exitMetrics = []memnn.ExitMetric{memnn.ExitMargin, memnn.ExitMaxProb, memnn.ExitAttnMax}

// Run executes the full sweep against t. The active kernel tier is
// restored before returning.
func Run(t testing.TB, opt Options) {
	opt.norm()
	prev := tensor.KernelTier()
	defer func() {
		if err := tensor.SetKernelTier(prev); err != nil {
			t.Errorf("equivtest: restoring kernel tier %q: %v", prev, err)
		}
	}()
	for _, tier := range opt.Tiers {
		if err := tensor.SetKernelTier(tier); err != nil {
			t.Fatalf("equivtest: SetKernelTier(%q): %v", tier, err)
		}
		runTier(t, tier, opt)
	}
}

// fixture is one tier's model, question set, and per-question embedded
// stories. Some consecutive questions share an EmbeddedStory pointer so
// the batched path exercises multi-question story groups, not just
// singletons.
type fixture struct {
	model   *memnn.Model
	exs     []memnn.Example
	stories []*memnn.EmbeddedStory
}

func build(t testing.TB, opt Options) *fixture {
	rng := rand.New(rand.NewSource(opt.Seed))
	gen := babi.GenOptions{Stories: opt.Stories, StoryLen: 10, People: 4, Locations: 4}
	single := babi.Generate(babi.TaskSingleFact, gen, rng)
	two := babi.Generate(babi.TaskTwoFacts, gen, rng)
	corpus := memnn.BuildCorpus(single, two, 0)
	model, err := memnn.NewModel(memnn.Config{
		Dim:     opt.Dim,
		Hops:    opt.Hops,
		Vocab:   corpus.Vocab.Size(),
		Answers: len(corpus.Answers),
		MaxSent: corpus.MaxSent,
	}, rng)
	if err != nil {
		t.Fatalf("equivtest: NewModel: %v", err)
	}

	fx := &fixture{model: model}
	var exs []memnn.Example
	exs = append(exs, corpus.Train...)
	exs = append(exs, corpus.Test...)
	for i, ex := range exs {
		es := new(memnn.EmbeddedStory)
		model.EmbedStoryInto(memnn.Example{Sentences: ex.Sentences}, es)
		fx.exs = append(fx.exs, ex)
		fx.stories = append(fx.stories, es)
		// Every third question donates its story to a sibling question,
		// forming a genuine two-question story group in the batch.
		if i%3 == 0 && i+1 < len(exs) {
			fx.exs = append(fx.exs, memnn.Example{
				Sentences: ex.Sentences,
				Question:  exs[i+1].Question,
			})
			fx.stories = append(fx.stories, es)
		}
	}
	return fx
}

// runTier recomputes the tier's baseline (serial, unbatched, gate off)
// and checks every engine configuration against it bit for bit.
func runTier(t testing.TB, tier string, opt Options) {
	fx := build(t, opt)
	model, hops := fx.model, fx.model.Cfg.Hops

	var f memnn.Forward
	base := make([][]float32, len(fx.exs))
	for i, ex := range fx.exs {
		fw := model.ApplyGated(ex, opt.Skip, memnn.ExitPolicy{}, &f, fx.stories[i], nil)
		base[i] = append([]float32(nil), fw.Logits...)
	}

	// Reference legs: each engine that orders the hop's float32
	// operations its own way is held to the oracle, without skipping.
	oracle := make([][]float64, len(fx.exs))
	for i, ex := range fx.exs {
		oracle[i] = Oracle(model, ex)
	}
	checkOracle := func(engine string, q int, got tensor.Vector) {
		t.Helper()
		if msg := oracleMismatch(got, oracle[q]); msg != "" {
			t.Fatalf("equivtest: tier %s, %s, q %d: %s", tier, engine, q, msg)
		}
	}
	for i, ex := range fx.exs {
		checkOracle("lazy-softmax hop", i, model.ApplyGated(ex, 0, memnn.ExitPolicy{}, &f, fx.stories[i], nil).Logits)
		checkOracle("dense trainer pass", i, model.Apply(ex, 0).Logits)
	}

	checkAgainst := func(baseline [][]float32, engine string, q int, got tensor.Vector) {
		t.Helper()
		want := baseline[q]
		if len(got) != len(want) {
			t.Fatalf("equivtest: tier %s, %s, q %d: %d logits, baseline has %d",
				tier, engine, q, len(got), len(want))
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("equivtest: tier %s, %s, q %d: logit %d = %x, baseline %x (not bit-identical)",
					tier, engine, q, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	check := func(engine string, q int, got tensor.Vector) {
		t.Helper()
		checkAgainst(base, engine, q, got)
	}

	// Unbatched, gate armed per metric with a threshold that cannot
	// fire: all hops must run and the logits must not move a bit.
	for _, metric := range exitMetrics {
		policy := memnn.ExitPolicy{Metric: metric, Threshold: neverFire(), MinHops: 1}
		name := "unbatched gated-inf " + metric.String()
		for i, ex := range fx.exs {
			fw := model.ApplyGated(ex, opt.Skip, policy, &f, fx.stories[i], nil)
			if fw.ExitHop != hops {
				t.Fatalf("equivtest: tier %s, %s, q %d: exited after %d hops with an unfireable threshold, want %d",
					tier, name, i, fw.ExitHop, hops)
			}
			check(name, i, fw.Logits)
		}
	}

	// Batched and parallel-batched, gate off and gate armed-but-unfireable.
	checkBatch := func(baseline [][]float32, engine string, policy memnn.ExitPolicy) {
		t.Helper()
		var bf memnn.BatchForward
		out := make([]int, len(fx.exs))
		model.PredictBatch(fx.exs, opt.Skip, policy, fx.stories, &bf, nil, out)
		for q := range fx.exs {
			if policy.Enabled() {
				if got := bf.ExitHop(q); got != hops {
					t.Fatalf("equivtest: tier %s, %s, q %d: exit hop %d with an unfireable threshold, want %d",
						tier, engine, q, got, hops)
				}
			}
			checkAgainst(baseline, engine, q, bf.Logits(q))
		}
	}
	gatedInf := memnn.ExitPolicy{Metric: memnn.ExitMargin, Threshold: neverFire(), MinHops: 1}
	batchSweep := func(baseline [][]float32, prefix string) {
		t.Helper()
		checkBatch(baseline, prefix+"batched serial gate-off", memnn.ExitPolicy{})
		checkBatch(baseline, prefix+"batched serial gated-inf", gatedInf)
		for _, p := range opt.Workers {
			pool := tensor.NewPool(p)
			model.SetParallel(pool)
			checkBatch(baseline, prefix+"batched P="+strconv.Itoa(p)+" gate-off", memnn.ExitPolicy{})
			checkBatch(baseline, prefix+"batched P="+strconv.Itoa(p)+" gated-inf", gatedInf)
			model.SetParallel(nil)
			pool.Close()
		}
	}
	batchSweep(base, "")

	// Approximate top-k attention. Three contracts, in order:
	//
	//  1. topk enabled but the stories never indexed (the MinRows
	//     fallback and the pre-ingest state) runs the exact path —
	//     logits match the exact baseline bit for bit.
	//  2. A full-width probe with no top-k cut attends over every row,
	//     so without skipping it is the exact model and must sit
	//     within OracleTol of the reference (the degenerate-index
	//     identity).
	//  3. A genuinely narrow probe changes the answer, so it gets its
	//     own serial-unbatched baseline; every engine configuration —
	//     gated-unfireable, batched, parallel-batched — must reproduce
	//     THAT baseline bit for bit.
	model.SetTopK(memnn.TopKConfig{Enabled: true, K: 0, NProbe: 1 << 20, MinRows: 1})
	for i, ex := range fx.exs {
		fw := model.ApplyGated(ex, opt.Skip, memnn.ExitPolicy{}, &f, fx.stories[i], nil)
		check("topk unindexed fallback", i, fw.Logits)
	}
	built := make(map[*memnn.EmbeddedStory]bool, len(fx.stories))
	for _, es := range fx.stories {
		// Shared-story questions alias one EmbeddedStory; build once.
		if !built[es] {
			if !model.BuildStoryIndex(es) {
				t.Fatalf("equivtest: tier %s: BuildStoryIndex declined with MinRows=1", tier)
			}
			built[es] = true
		}
	}
	for i, ex := range fx.exs {
		checkOracle("topk full-probe", i, model.ApplyGated(ex, 0, memnn.ExitPolicy{}, &f, fx.stories[i], nil).Logits)
	}

	// Narrow probe: K/NProbe are query-time knobs, so the indices built
	// above stay valid.
	model.SetTopK(memnn.TopKConfig{Enabled: true, K: 4, NProbe: 1, MinRows: 1})
	topkBase := make([][]float32, len(fx.exs))
	for i, ex := range fx.exs {
		fw := model.ApplyGated(ex, opt.Skip, memnn.ExitPolicy{}, &f, fx.stories[i], nil)
		topkBase[i] = append([]float32(nil), fw.Logits...)
	}
	for _, metric := range exitMetrics {
		policy := memnn.ExitPolicy{Metric: metric, Threshold: neverFire(), MinHops: 1}
		name := "topk unbatched gated-inf " + metric.String()
		for i, ex := range fx.exs {
			fw := model.ApplyGated(ex, opt.Skip, policy, &f, fx.stories[i], nil)
			if fw.ExitHop != hops {
				t.Fatalf("equivtest: tier %s, %s, q %d: exited after %d hops with an unfireable threshold, want %d",
					tier, name, i, fw.ExitHop, hops)
			}
			checkAgainst(topkBase, name, i, fw.Logits)
		}
	}
	batchSweep(topkBase, "topk ")
	model.SetTopK(memnn.TopKConfig{})
}
