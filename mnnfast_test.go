package mnnfast_test

import (
	"math/rand"
	"strings"
	"testing"

	"mnnfast"
	"mnnfast/internal/tensor"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's
// quickstart describes it.
func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const ns, ed = 4096, 32
	mem, err := mnnfast.NewMemory(
		tensor.GaussianMatrix(rng, ns, ed, 0.5),
		tensor.GaussianMatrix(rng, ns, ed, 0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	u := tensor.RandomVector(rng, ed, 1)

	base := mnnfast.NewBaseline(mem, mnnfast.Options{})
	fast := mnnfast.NewColumn(mem, mnnfast.Options{ChunkSize: 256, Streaming: true})
	oBase := tensor.NewVector(ed)
	oFast := tensor.NewVector(ed)
	stBase := base.Infer(u, oBase)
	stFast := fast.Infer(u, oFast)

	if d := tensor.MaxAbsDiff(oBase, oFast); d > 1e-4 {
		t.Errorf("facade engines disagree by %v", d)
	}
	if stBase.Divisions != int64(ns) || stFast.Divisions != int64(ed) {
		t.Errorf("division counts %d / %d, want ns=%d / ed=%d",
			stBase.Divisions, stFast.Divisions, ns, ed)
	}
}

func TestFacadeExperimentRunner(t *testing.T) {
	ids := mnnfast.ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiment ids")
	}
	var sb strings.Builder
	if err := mnnfast.RunExperiment(&sb, "table1", mnnfast.QuickExperimentConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "table1") {
		t.Errorf("runner output missing table header:\n%s", sb.String())
	}
	if err := mnnfast.RunExperiment(&sb, "not-an-id", mnnfast.QuickExperimentConfig()); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestFacadeConfigs(t *testing.T) {
	def := mnnfast.DefaultExperimentConfig()
	quick := mnnfast.QuickExperimentConfig()
	if def.NS <= quick.NS {
		t.Errorf("default NS %d should exceed quick NS %d", def.NS, quick.NS)
	}
}
