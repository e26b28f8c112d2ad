package experiments

import (
	"strings"
	"testing"

	"mnnfast/internal/babi"
)

func quick() Config { return QuickConfig() }

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Headers: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Note("n=%d", 3)
	s := tb.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: n=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestIDsAndRun(t *testing.T) {
	ids := IDs()
	if len(ids) < 12 {
		t.Fatalf("only %d experiment ids", len(ids))
	}
	if _, err := Run("nope", quick()); err == nil {
		t.Error("unknown id accepted")
	}
	// table1 is instant; run it through the registry.
	tb, err := Run("table1", quick())
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != "table1" {
		t.Errorf("got table %q", tb.ID)
	}
}

func TestFig3Shapes(t *testing.T) {
	r := Fig3(quick())
	// Speedup grows (weakly) with channels at the top thread count.
	last := len(r.Threads) - 1
	for c := 1; c < len(r.Channels); c++ {
		if r.Speedup[c][last] <= r.Speedup[c-1][last] {
			t.Errorf("max-thread speedup not increasing with channels: %v", r.Speedup)
		}
	}
	// Monotone in threads per channel.
	for c := range r.Channels {
		for i := 1; i < len(r.Threads); i++ {
			if r.Speedup[c][i] < r.Speedup[c][i-1]-1e-9 {
				t.Errorf("channel %d: speedup decreased at %d threads", r.Channels[c], r.Threads[i])
			}
		}
	}
	// Saturation knee does not move earlier with more channels.
	for c := 1; c < len(r.Knee); c++ {
		if r.Knee[c] < r.Knee[c-1] {
			t.Errorf("knee moved earlier with more channels: %v", r.Knee)
		}
	}
	r.Table() // must not panic
}

func TestFig4Shapes(t *testing.T) {
	r := Fig4(quick())
	for d := range r.Dims {
		// Degradation grows with embedding threads.
		for k := 1; k < len(r.EmbThreads); k++ {
			if r.Relative[d][k] > r.Relative[d][k-1]+0.02 {
				t.Errorf("ed=%d: relative perf rose with more embedding threads: %v", r.Dims[d], r.Relative[d])
			}
		}
		if r.Relative[d][len(r.EmbThreads)-1] >= 1 {
			t.Errorf("ed=%d: no degradation at 8 embedding threads", r.Dims[d])
		}
		// The embedding cache must beat the contended case.
		if r.WithEmbCache[d] <= r.Relative[d][len(r.EmbThreads)-1] {
			t.Errorf("ed=%d: embedding cache did not relieve contention", r.Dims[d])
		}
	}
	r.Table()
}

func TestFig6Shapes(t *testing.T) {
	r, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, f := range r.Histogram {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("histogram sums to %v", sum)
	}
	if len(r.Histogram) != len(r.Buckets) {
		t.Errorf("%d histogram buckets for %d labels", len(r.Histogram), len(r.Buckets))
	}
	r.Table()
}

func TestFig7Shapes(t *testing.T) {
	r, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Thresholds); i++ {
		if r.Reduction[i] < r.Reduction[i-1]-1e-9 {
			t.Errorf("compute reduction not monotone in threshold: %v", r.Reduction)
		}
	}
	if r.Reduction[len(r.Reduction)-1] < 0.5 {
		t.Errorf("large threshold should skip most output work: %v", r.Reduction)
	}
	if len(r.PerTask) != int(babi.NumTasks) {
		t.Errorf("expected %d tasks, got %d", babi.NumTasks, len(r.PerTask))
	}
	r.Table()
}

func TestFig9Shapes(t *testing.T) {
	r := Fig9(quick())
	iCol, iCS, iMF := int(VariantColumn), int(VariantColumnStream), int(VariantMnnFast)
	if !(r.AvgSpeedup[iCol] > 1) {
		t.Errorf("column avg speedup %v, want > 1", r.AvgSpeedup[iCol])
	}
	if !(r.AvgSpeedup[iCS] > r.AvgSpeedup[iCol]) {
		t.Errorf("streaming did not improve on column: %v vs %v", r.AvgSpeedup[iCS], r.AvgSpeedup[iCol])
	}
	if !(r.AvgSpeedup[iMF] > r.AvgSpeedup[iCS]) {
		t.Errorf("zero-skipping did not improve on streaming: %v vs %v", r.AvgSpeedup[iMF], r.AvgSpeedup[iCS])
	}
	// Baseline divisions dominate its softmax time relative to column.
	if r.Breakdown[0].Softmax <= r.Breakdown[iCol].Softmax {
		t.Errorf("lazy softmax did not shrink softmax time: %v vs %v",
			r.Breakdown[0].Softmax, r.Breakdown[iCol].Softmax)
	}
	r.Table()
}

func TestFig10Shapes(t *testing.T) {
	r := Fig10(quick())
	// Streaming scales at least as well as non-streaming at the top
	// channel count and top thread count.
	c := len(r.Channels) - 1
	last := len(r.Threads) - 1
	if r.ColumnStream[c][last] < r.Column[c][last] {
		t.Errorf("column+S scaled worse than column at %dch: %v < %v",
			r.Channels[c], r.ColumnStream[c][last], r.Column[c][last])
	}
	r.Table()
}

func TestFig11Shapes(t *testing.T) {
	r := Fig11(quick())
	if r.Normalized[0] != 1 {
		t.Errorf("baseline normalization %v", r.Normalized[0])
	}
	if !(r.Normalized[1] < 1) {
		t.Errorf("column did not reduce demand misses: %v", r.Normalized[1])
	}
	if !(r.Normalized[2] < 0.4) {
		t.Errorf("column+streaming should eliminate >60%% of demand accesses: %v", r.Normalized[2])
	}
	r.Table()
}

func TestFig12Shapes(t *testing.T) {
	r := Fig12(quick())
	// Streams give a modest speedup capped by the memcpy critical path.
	last := r.StreamSpeedup[len(r.StreamSpeedup)-1]
	if last < 1.1 || last > 1.6 {
		t.Errorf("4-stream speedup %v outside the paper's memcpy-bound regime", last)
	}
	// Multi-GPU beats streams and grows with device count.
	for i := 1; i < len(r.GPUs); i++ {
		if r.GPUSpeedup[i] <= r.GPUSpeedup[i-1] {
			t.Errorf("multi-GPU speedup not increasing: %v", r.GPUSpeedup)
		}
	}
	if top := r.GPUSpeedup[len(r.GPUSpeedup)-1]; top < 3 {
		t.Errorf("4-GPU speedup %v, want > 3 (paper: 4.34)", top)
	}
	// The worst-vs-ideal H2D gap grows with devices.
	prev := 0.0
	for i := range r.GPUs {
		gap := r.Worst[i].H2D - r.Ideal[i].H2D
		if gap < prev-1e-12 {
			t.Errorf("H2D contention gap shrank: %v", gap)
		}
		prev = gap
	}
	r.Table()
}

func TestFig13Shapes(t *testing.T) {
	r := Fig13(quick())
	for i := 1; i < len(r.Normalized); i++ {
		if r.Normalized[i] >= r.Normalized[i-1] {
			t.Errorf("FPGA latency not strictly improving per optimization: %v", r.Normalized)
		}
	}
	if r.SpeedupAll < 1.7 || r.SpeedupAll > 2.8 {
		t.Errorf("full MnnFast FPGA speedup %v, paper reports 2.01×", r.SpeedupAll)
	}
	// Column alone should land in the paper's −20–35%% band.
	if r.Normalized[1] < 0.65 || r.Normalized[1] > 0.85 {
		t.Errorf("column-only normalized latency %v, paper: 0.724", r.Normalized[1])
	}
	r.Table()
}

func TestFig14Shapes(t *testing.T) {
	r := Fig14(quick())
	for i := 1; i < len(r.SizesKB); i++ {
		if r.Reduction[i] <= r.Reduction[i-1] {
			t.Errorf("latency reduction not increasing with cache size: %v", r.Reduction)
		}
		if r.BoundRed[i] <= r.BoundRed[i-1] {
			t.Errorf("associativity bound not increasing: %v", r.BoundRed)
		}
	}
	// The bound should bracket the paper's numbers: 32 KB ≈ 34.5%,
	// 256 KB ≈ 53.1%.
	if r.BoundRed[0] < 0.30 || r.BoundRed[0] > 0.40 {
		t.Errorf("32KB bound reduction %v, paper: 0.345", r.BoundRed[0])
	}
	if last := r.BoundRed[len(r.BoundRed)-1]; last < 0.47 || last > 0.58 {
		t.Errorf("256KB bound reduction %v, paper: 0.531", last)
	}
	// Simulated direct-mapped reductions stay below the bound.
	for i := range r.Reduction {
		if r.Reduction[i] > r.BoundRed[i] {
			t.Errorf("simulated reduction exceeds associativity bound at %dKB", r.SizesKB[i])
		}
	}
	r.Table()
}

func TestEnergyShapes(t *testing.T) {
	r := Energy(quick())
	if r.FPGAAdvantage < 2 {
		t.Errorf("FPGA energy advantage %v, paper reports 6.54×", r.FPGAAdvantage)
	}
	if r.CPUTime <= 0 || r.FPGATime <= 0 {
		t.Error("non-positive batch times")
	}
	r.Table()
}

func TestMeasuredOrdering(t *testing.T) {
	cfg := quick()
	cfg.NS = 1 << 12
	r := Measured(cfg)
	if len(r.Latency) != 4 {
		t.Fatalf("%d variants measured", len(r.Latency))
	}
	if r.MaxOutErr > 1e-3 {
		t.Errorf("exact engines disagree by %v", r.MaxOutErr)
	}
	// MnnFast (zero-skipping) must beat the plain column run in work
	// done; on wall-clock allow noise but require it not be slower than
	// baseline by more than 2× (sanity bound, not a perf assertion).
	if r.Speedup[int(VariantMnnFast)] < 0.5 {
		t.Errorf("mnnfast wall-clock speedup %v suspiciously low", r.Speedup[int(VariantMnnFast)])
	}
	r.Table()
}

func TestTable1(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) < 4 {
		t.Errorf("table1 has %d rows", len(tb.Rows))
	}
}

func TestBypassShapes(t *testing.T) {
	r := Bypass(quick())
	if len(r.Policies) != 3 {
		t.Fatalf("%d policies", len(r.Policies))
	}
	shared, bypass, cached := 0, 1, 2
	if r.InfMissRate[bypass] >= r.InfMissRate[shared] {
		t.Errorf("bypass did not relieve inference contention: %v vs %v",
			r.InfMissRate[bypass], r.InfMissRate[shared])
	}
	if r.EmbDRAM[bypass] != r.EmbAccesses {
		t.Errorf("bypass must send every embedding access to DRAM: %d of %d",
			r.EmbDRAM[bypass], r.EmbAccesses)
	}
	if r.EmbDRAM[cached] >= r.EmbDRAM[bypass] {
		t.Errorf("embedding cache did not cut DRAM accesses below bypass: %d vs %d",
			r.EmbDRAM[cached], r.EmbDRAM[bypass])
	}
	if r.InfMissRate[cached] > r.InfMissRate[bypass]+1e-9 {
		t.Errorf("embedding cache isolates at least as well as bypass: %v vs %v",
			r.InfMissRate[cached], r.InfMissRate[bypass])
	}
	r.Table()
}

func TestDRAMRowShapes(t *testing.T) {
	r := DRAMRow(quick())
	iBase, iCol := 0, 1
	if r.Efficiency[iCol] <= r.Efficiency[iBase] {
		t.Errorf("column stream not more row-buffer friendly than baseline: %v vs %v",
			r.Efficiency[iCol], r.Efficiency[iBase])
	}
	if r.EmbEfficiency >= r.Efficiency[iBase] {
		t.Errorf("random embedding lookups should underperform sequential streams: %v vs %v",
			r.EmbEfficiency, r.Efficiency[iBase])
	}
	for i := range r.Variants {
		if r.RowHitRate[i] <= 0 || r.RowHitRate[i] > 1 {
			t.Errorf("row-hit rate out of range: %v", r.RowHitRate[i])
		}
	}
	r.Table()
}

func TestVerifyAllPasses(t *testing.T) {
	checks := VerifyAll(quick())
	if len(checks) < 8 {
		t.Fatalf("only %d checks", len(checks))
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("claim-shape check failed: %s — %s", c.Name, c.Detail)
		}
		if c.Detail == "" {
			t.Errorf("check %s has no detail", c.Name)
		}
	}
}

// TestModelledFiguresDeterministic renders every experiment except the
// wall-clock one twice and requires identical text: a figure is a
// function of its Config alone.
func TestModelledFiguresDeterministic(t *testing.T) {
	for _, id := range IDs() {
		if id == "measured" {
			continue
		}
		var runs [2]string
		for i := range runs {
			tb, err := Run(id, quick())
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = tb.String()
		}
		if runs[0] != runs[1] {
			t.Errorf("%s renders differently on a second run:\n%s\nthen:\n%s", id, runs[0], runs[1])
		}
	}
}
