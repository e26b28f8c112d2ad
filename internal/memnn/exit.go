package memnn

import (
	"fmt"

	"mnnfast/internal/tensor"
)

// Adaptive hop pruning (confidence-gated early exit). Most questions
// resolve before the last hop — A2P-MANN observes this on bAbI, and
// Adaptive Memory Networks argues inference cost should scale with
// question difficulty rather than worst-case hop count. The gate
// converts that observation into wall-clock savings on top of
// zero-skipping: after each hop it derives a confidence score from the
// current internal state, and when the score clears a threshold the
// remaining hops (and their attention work) are skipped, answering from
// the state already computed.
//
// Determinism contract (the hop-level analogue of the batching and
// parallelism contracts, pinned by internal/equivtest):
//
//   - Gate disabled (zero ExitPolicy): the pass is bit-identical to a
//     pass built without the gate — no gate code touches the state.
//   - Gate enabled but never firing (e.g. Threshold > 1): every hop
//     runs and the final logits are bit-identical to the ungated pass
//     at any worker count and batch composition. The gate only ever
//     writes the Logits/gate scratch, which the final output
//     projection overwrites; U, P, and O see exactly the same float32
//     operations in exactly the same order.
//   - An early exit answers with logits W·u computed by the same
//     per-row tensor.Dot as the final projection, so a query that
//     exits at hop h in a batch is bit-identical to the same query
//     exiting at hop h unbatched.

// ExitMetric selects how the gate scores confidence after a hop. Every
// metric is a pure float32 computation (no float64 detours) so gated
// passes stay within the repo's float-determinism rules.
type ExitMetric int

const (
	// ExitMargin scores the margin of the answer softmax: top-1 minus
	// top-2 probability of softmax(W·u) after the hop. In [0, 1];
	// high margin = the answer is already decided.
	ExitMargin ExitMetric = iota
	// ExitMaxProb scores the top-1 probability of the answer softmax.
	// In (0, 1].
	ExitMaxProb
	// ExitAttnMax scores the peak attention weight of the hop just
	// executed — the float32-pure stand-in for attention entropy
	// (a peaked distribution is a low-entropy one). In (0, 1] for
	// softmax attention. Cheaper than the answer metrics: no W
	// projection unless the gate actually fires.
	ExitAttnMax
	numExitMetrics
)

// String names the metric.
//
//mnnfast:coldpath
func (m ExitMetric) String() string {
	switch m {
	case ExitMargin:
		return "margin"
	case ExitMaxProb:
		return "maxprob"
	case ExitAttnMax:
		return "attnmax"
	}
	return fmt.Sprintf("metric(%d)", int(m))
}

// ParseExitMetric maps a flag value to its metric.
func ParseExitMetric(s string) (ExitMetric, error) {
	switch s {
	case "margin":
		return ExitMargin, nil
	case "maxprob":
		return ExitMaxProb, nil
	case "attnmax":
		return ExitAttnMax, nil
	}
	return 0, fmt.Errorf("memnn: unknown exit metric %q (want margin, maxprob, or attnmax)", s)
}

// ExitPolicy configures the confidence gate. The zero value disables
// it entirely (the pre-gate code path, bit for bit).
type ExitPolicy struct {
	// Metric selects the confidence score.
	Metric ExitMetric
	// Threshold arms the gate: after an eligible hop, confidence >=
	// Threshold exits early. Confidence scores live in [0, 1], so a
	// threshold above 1 (or +Inf) can never fire — useful for pinning
	// the gated-but-ran-all-hops determinism contract. Threshold <= 0
	// disables the gate. A NaN threshold never fires (every comparison
	// with NaN is false).
	Threshold float32
	// MinHops is the first hop the gate may exit after (1-based);
	// values below 1 mean 1. The gate never evaluates after the final
	// hop — there is nothing left to skip.
	MinHops int
	// Fallback, when in (0, Threshold], is the commit-to-full-path
	// floor: a confidence below it marks the question as hard, and the
	// gate stops evaluating for that question — it falls back to the
	// full hop path without paying further gate projections. Outside
	// that range it is ignored.
	Fallback float32
}

// active reports whether the gate can influence a pass over a model
// with the given hop count: it needs a positive threshold and at least
// one eligible hop before the last.
func (p ExitPolicy) active(hops int) bool {
	return p.Threshold > 0 && p.minHops() < hops
}

// Enabled reports whether the policy arms the gate at all.
func (p ExitPolicy) Enabled() bool { return p.Threshold > 0 }

// minHops normalizes MinHops.
func (p ExitPolicy) minHops() int {
	if p.MinHops < 1 {
		return 1
	}
	return p.MinHops
}

// fallback returns the commit-to-full-path floor, or 0 when disabled
// or inconsistent (a floor above the exit threshold would commit
// questions the gate was about to exit).
func (p ExitPolicy) fallback() float32 {
	if p.Fallback > 0 && p.Fallback <= p.Threshold {
		return p.Fallback
	}
	return 0
}

// Validate rejects policies that cannot be meant: unknown metrics and
// NaN thresholds. It is advisory — the forward pass accepts any policy
// and simply never exits on comparisons that cannot fire.
//
//mnnfast:coldpath
func (p ExitPolicy) Validate() error {
	if p.Metric < 0 || p.Metric >= numExitMetrics {
		return fmt.Errorf("memnn: unknown exit metric %d", int(p.Metric))
	}
	if p.Threshold != p.Threshold {
		return fmt.Errorf("memnn: exit threshold is NaN")
	}
	return nil
}

// answerConfidence scores a softmax distribution over answer classes:
// top-1 probability, or top-1 minus top-2 margin. Pure float32.
//
//mnnfast:hotpath
func answerConfidence(metric ExitMetric, probs tensor.Vector) float32 {
	var p1, p2 float32
	for _, p := range probs {
		if p > p1 {
			p1, p2 = p, p1
		} else if p > p2 {
			p2 = p
		}
	}
	if metric == ExitMaxProb {
		return p1
	}
	return p1 - p2
}
