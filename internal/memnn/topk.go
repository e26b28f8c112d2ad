package memnn

import (
	"mnnfast/internal/sparse"
)

// Approximate top-k attention (ROADMAP "Million-row memories"): an IVF
// index over each hop's embedded M_IN lets a hop score only the rows
// in the nprobe best clusters instead of all ns, cutting per-hop work
// from O(ns·ed) to O(probed·ed). The index is built once per
// EmbeddedStory — the story-ingest analogue of the embedding cache
// (§3.3) — and reused across every question and hop on that story.
//
// Determinism contract (DESIGN.md §15): for a fixed index the topk hop
// is bit-identical across {serial, parallel} × {batched, unbatched} —
// the probe, candidate sort, top-k cut, softmax, and ascending-row
// gather are per-question serial operations with no cross-question
// state, pinned by internal/equivtest. Stories below MinRows fall back
// to exact attention, and the trainer's dense pass (Apply) is always
// exact. An inference pass given no cached EmbeddedStory embeds and
// indexes the story itself, as a cache fill would.

// TopKConfig configures the model's approximate top-k attention mode.
// The zero value (Enabled false) is exact attention everywhere.
type TopKConfig struct {
	// Enabled turns the topk path on for stories with a built index.
	Enabled bool
	// K is the number of attention survivors per hop; <= 0 keeps every
	// probed candidate (probe-limited attention).
	K int
	// NProbe is the number of inverted lists probed per hop; <= 0
	// selects sparse.DefaultNProbe (nlist/16, at least 1).
	NProbe int
	// MinRows is the exact-fallback floor: BuildStoryIndex declines to
	// index stories with fewer sentences, keeping small stories on the
	// exact path where a probe would save nothing. <= 0 selects
	// DefaultTopKMinRows.
	MinRows int
	// Index overrides the k-means build parameters; the zero value
	// sizes everything from the row count.
	Index sparse.IndexOptions
}

// DefaultTopKMinRows is the default exact-fallback floor: below this
// row count a full scan is cheaper than probe bookkeeping.
const DefaultTopKMinRows = 256

// minRows resolves the fallback floor.
func (c TopKConfig) minRows() int {
	if c.MinRows <= 0 {
		return DefaultTopKMinRows
	}
	return c.MinRows
}

// SetTopK installs the approximate-attention configuration. It affects
// which stories BuildStoryIndex will index and whether indexed hops
// take the topk path; already-built indices on cached stories remain
// and are used only while Enabled stays true. Not safe to call
// concurrently with predictions.
//
//mnnfast:coldpath
func (m *Model) SetTopK(cfg TopKConfig) { m.topk = cfg }

// TopK returns the current approximate-attention configuration.
//
//mnnfast:coldpath
func (m *Model) TopK() TopKConfig { return m.topk }

// BuildStoryIndex builds the per-hop IVF indices for a cached story,
// one per hop over that hop's embedded M_IN. It reports whether an
// index was built: false when topk is disabled or the story is below
// the MinRows floor (the exact-fallback rule), in which case any stale
// index is dropped. With layer-wise tying every hop shares one
// embedding and temporal table, so one index is built and shared.
// Build cost is the one-time story-ingest price; call it after
// EmbedStoryInto (which invalidates the index, since re-embedding
// moves the rows).
//
//mnnfast:coldpath
func (m *Model) BuildStoryIndex(es *EmbeddedStory) bool {
	if !m.topk.Enabled || es.NS < m.topk.minRows() {
		es.Index = es.Index[:0]
		return false
	}
	hops := m.Cfg.Hops
	if cap(es.Index) < hops {
		es.Index = make([]*sparse.TopKIndex, hops)
	}
	es.Index = es.Index[:hops]
	for k := 0; k < hops; k++ {
		if m.Cfg.Tying == TyingLayerwise && k > 0 {
			// One embedding table, one temporal table: M_IN is the same
			// matrix content every hop, so the hop-0 index serves all.
			es.Index[k] = es.Index[0]
			continue
		}
		es.Index[k] = sparse.BuildTopKIndex(es.MemIn[k], m.topk.Index)
	}
	return true
}

// topkIndex returns the index to use for hop k of es, or nil when the
// hop must run exact attention: topk disabled, no index built (below
// MinRows, or BuildStoryIndex never called on a cached story), or
// linear-start training (raw inner products have no top-k structure
// worth probing — and the trainer compares against the dense pass).
//
//mnnfast:hotpath
func (m *Model) topkIndex(es *EmbeddedStory, k int) *sparse.TopKIndex {
	if !m.topk.Enabled || m.LinearAttention || k >= len(es.Index) {
		return nil
	}
	return es.Index[k]
}
