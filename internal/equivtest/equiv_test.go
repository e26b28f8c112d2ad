package equivtest

import (
	"math/rand"
	"testing"

	"mnnfast/internal/memnn"
	"mnnfast/internal/tensor"
)

// TestEquivalenceSweep is the CI entry point of the harness: every
// engine configuration over the default generated-bAbI set must be
// bit-identical within each kernel tier. Other packages invoke the same
// sweep with their own Options via Run.
func TestEquivalenceSweep(t *testing.T) {
	Run(t, Options{})
}

// TestEquivalenceSweepDeep widens the sweep (more stories, a larger
// model) for the dedicated equivalence CI job; -short keeps it out of
// the ordinary unit-test wall clock.
func TestEquivalenceSweepDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep skipped in -short mode")
	}
	Run(t, Options{Seed: 2, Stories: 48, Hops: 4, Dim: 24})
}

// TestOracleModelVariants holds the inference hop and the trainer's
// dense pass to the oracle on the model variants the generated-bAbI
// fixture does not build — position encoding, layer-wise tying — and on
// a story long enough to span several hop chunks with a moving running
// maximum, at every kernel tier.
func TestOracleModelVariants(t *testing.T) {
	prev := tensor.KernelTier()
	defer func() {
		if err := tensor.SetKernelTier(prev); err != nil {
			t.Error(err)
		}
	}()
	rng := rand.New(rand.NewSource(5))
	for _, tier := range tensor.KernelTiers() {
		if err := tensor.SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []memnn.Config{
			{Dim: 12, Hops: 3, MaxSent: 9},
			{Dim: 12, Hops: 3, MaxSent: 9, Position: true},
			{Dim: 12, Hops: 2, MaxSent: 9, Tying: memnn.TyingLayerwise},
			{Dim: 20, Hops: 2, MaxSent: 700, Position: true, Tying: memnn.TyingLayerwise, InitStd: 0.3},
		} {
			cfg.Vocab, cfg.Answers = 30, 5
			model, err := memnn.NewModel(cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			ex := memnn.Example{Sentences: make([][]int, cfg.MaxSent-2), Question: []int{3, 0, 7, 11}}
			for i := range ex.Sentences {
				ex.Sentences[i] = []int{1 + rng.Intn(29), 0, 1 + rng.Intn(29), 1 + rng.Intn(29)}
			}
			want := Oracle(model, ex)
			var lazy memnn.Forward
			if msg := oracleMismatch(model.ApplyGated(ex, 0, memnn.ExitPolicy{}, &lazy, nil, nil).Logits, want); msg != "" {
				t.Errorf("tier %s, %+v, lazy-softmax hop: %s", tier, cfg, msg)
			}
			if msg := oracleMismatch(model.Apply(ex, 0).Logits, want); msg != "" {
				t.Errorf("tier %s, %+v, dense trainer pass: %s", tier, cfg, msg)
			}
		}
	}
}
