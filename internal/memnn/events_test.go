package memnn

import (
	"math/rand"
	"testing"

	"mnnfast/internal/trace"
)

// TestTracedPassBitIdentical pins the tracing determinism contract
// (Instrumentation.Ev): recording per-stage events must not change a
// single bit of the forward pass, on both the single-question and the
// batched path.
func TestTracedPassBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		c := randBatchCase(t, rng, 1+rng.Intn(6))
		n := len(c.exs)

		// Untraced batched pass.
		var bfPlain BatchForward
		plain := make([]int, n)
		c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bfPlain, nil, plain)

		// Traced batched pass.
		var bfTraced BatchForward
		var ins Instrumentation
		var ev trace.Events
		ins.Ev = &ev
		traced := make([]int, n)
		c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bfTraced, &ins, traced)

		for q := 0; q < n; q++ {
			if plain[q] != traced[q] {
				t.Fatalf("trial %d question %d: answer %d traced vs %d untraced", trial, q, traced[q], plain[q])
			}
			lp, lt := bfPlain.Logits(q), bfTraced.Logits(q)
			for i := range lp {
				if lp[i] != lt[i] {
					t.Fatalf("trial %d question %d logit %d: %x traced vs %x untraced",
						trial, q, i, lt[i], lp[i])
				}
			}
		}

		// The traced pass recorded the expected event shape:
		// embed-question + hops + output at minimum.
		if ev.Len() < c.model.Cfg.Hops+2 {
			t.Fatalf("trial %d: %d events, want >= %d", trial, ev.Len(), c.model.Cfg.Hops+2)
		}

		// Single-question path: traced == untraced, and per-hop events
		// appear with skip annotations.
		var f1, f2 Forward
		var ins1 Instrumentation
		var ev1 trace.Events
		ins1.Ev = &ev1
		a := c.model.PredictGated(c.exs[0], c.th, ExitPolicy{}, &f1, c.stories[0], nil)
		b := c.model.PredictGated(c.exs[0], c.th, ExitPolicy{}, &f2, c.stories[0], &ins1)
		if a != b {
			t.Fatalf("trial %d: single-path answer %d traced vs %d untraced", trial, b, a)
		}
		if ev1.Len() < c.model.Cfg.Hops+2 {
			t.Fatalf("trial %d: single-path events = %d, want >= %d", trial, ev1.Len(), c.model.Cfg.Hops+2)
		}
	}
}

// TestBatchEventShape checks the event tree a batched traced pass
// records: per-hop events annotated with hop index and skipped/rows
// deltas that sum to the Instrumentation totals.
func TestBatchEventShape(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := randBatchCase(t, rng, 4)
	var bf BatchForward
	var ins Instrumentation
	var ev trace.Events
	ins.Ev = &ev
	out := make([]int, len(c.exs))
	c.model.PredictBatch(c.exs, c.th, ExitPolicy{}, c.stories, &bf, &ins, out)

	// Replay into a trace and walk the export.
	rec := trace.NewRecorder(trace.Options{Capacity: 1, SpanCap: trace.MaxEvents + 4, SampleEvery: 1})
	tr := rec.StartTrace("test", "")
	root := tr.Start("infer", 0)
	tr.AddEvents(root, &ev)
	tr.Finish(root)
	rec.Commit(tr)
	got := rec.Lookup(tr.ID())
	if got == nil {
		t.Fatal("trace not retained")
	}
	defer rec.Release(got)

	names := map[string]int{}
	var skipped, rows int64
	hops := map[int64]bool{}
	var walk func(spans []*trace.ExportSpan)
	walk = func(spans []*trace.ExportSpan) {
		for _, sp := range spans {
			names[sp.Name]++
			if sp.Name == "hop" {
				hops[sp.Attrs["hop"].(int64)] = true
				skipped += sp.Attrs["skipped"].(int64)
				rows += sp.Attrs["rows"].(int64)
			}
			walk(sp.Children)
		}
	}
	walk(got.Export().Spans)

	if names["embed-question"] != 1 || names["output"] != 1 {
		t.Errorf("stage events: %v", names)
	}
	if names["hop"] != c.model.Cfg.Hops {
		t.Errorf("hop events = %d, want %d", names["hop"], c.model.Cfg.Hops)
	}
	if names["worker"] == 0 {
		t.Error("no worker events recorded")
	}
	for k := 0; k < c.model.Cfg.Hops; k++ {
		if !hops[int64(k)] {
			t.Errorf("hop %d missing", k)
		}
	}
	if skipped != ins.SkippedRows || rows != ins.TotalRows {
		t.Errorf("per-hop deltas skipped=%d rows=%d, instrumentation %d/%d",
			skipped, rows, ins.SkippedRows, ins.TotalRows)
	}
}
