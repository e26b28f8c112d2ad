package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"mnnfast/internal/tensor"
)

// metricDef declares one metric: BENCHMARK.json repeats these tables
// (a test holds the two together) and -compare applies the bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline it may worsen by
}

// endToEnd is what a user of the served system sees, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"answer_p50_us", "us", "lower", 0.15},
	{"answer_p95_us", "us", "lower", 0.25},
	{"answers_per_s", "1/s", "higher", 0.15},
	{"update_to_answer_p50_us", "us", "lower", 0.20},
	{"answer_agreement", "ratio", "higher", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayer is the traced pass: one layer's share each, never gated.
var perLayer = []metricDef{
	{Name: "client.transport_us", Unit: "us", Better: "lower"},
	{Name: "client.answer_ptail_us", Unit: "us", Better: "lower"},
	{Name: "client.answer_ptail_pct", Unit: "%", Better: "higher"},
	{Name: "client.answer_ptail_n", Unit: "count", Better: "higher"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.story_handler_us", Unit: "us", Better: "lower"},
	{Name: "server.json_decode_us", Unit: "us", Better: "lower"},
	{Name: "server.story_decode_us", Unit: "us", Better: "lower"},
	{Name: "server.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.sessions", Unit: "count", Better: "lower"},
	{Name: "server.unaccounted_us", Unit: "us", Better: "lower"},
	{Name: "vocab.question_encode_us", Unit: "us", Better: "lower"},
	{Name: "vocab.story_encode_us", Unit: "us", Better: "lower"},
	{Name: "batcher.do_us", Unit: "us", Better: "lower"},
	{Name: "batcher.mean_batch_size", Unit: "count", Better: "higher"},
	{Name: "batcher.shed_total", Unit: "count", Better: "lower"},
	{Name: "memnn.predict_us", Unit: "us", Better: "lower"},
	{Name: "memnn.predict_allocs", Unit: "count", Better: "lower"},
	{Name: "memnn.embed_story_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matvec_us", Unit: "us", Better: "lower"},
	{Name: "tensor.softmax_us", Unit: "us", Better: "lower"},
	{Name: "tensor.axpy_sweep_us", Unit: "us", Better: "lower"},
	{Name: "tensor.hop_bytes", Unit: "B", Better: "lower"},
	{Name: "sparse.attend_us", Unit: "us", Better: "lower"},
	{Name: "sparse.probed_rows", Unit: "count", Better: "lower"},
	{Name: "sparse.kept_rows", Unit: "count", Better: "lower"},
	{Name: "sparse.probe_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sparse.recall_at_k", Unit: "ratio", Better: "higher"},
	{Name: "sparse.index_build_us", Unit: "us", Better: "lower"},
	{Name: "sparse.index_bytes", Unit: "B", Better: "lower"},
	{Name: "trace.overhead_us", Unit: "us", Better: "lower"},
	{Name: "bench.train_s", Unit: "s", Better: "lower"},
	{Name: "bench.story_gen_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metric is one measured value. Segments holds the values behind it —
// the per-segment quantiles of a timing, the repetitions of setup_s.
type metric struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Segments []float64 `json:"segments,omitempty"`
}

// stage is one row of a workload's stage table.
type stage struct {
	Name string  `json:"name"`
	US   float64 `json:"us"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name       string            `json:"name"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Stages     []stage           `json:"stages,omitempty"` // rows sum to answer_p50_us of the traced pass's untraced window

	// Span self times of the traced window, printed beside the table.
	spanHandlerUS, spanClientSelfUS float64
}

// result is one invocation: where and how it ran, and every workload.
type result struct {
	Seed       int64             `json:"seed"`
	Quick      bool              `json:"quick"`
	Seconds    float64           `json:"seconds"`
	GitSHA     string            `json:"git_sha"`
	Date       string            `json:"date"`
	GoVersion  string            `json:"go_version"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	KernelTier string            `json:"kernel_tier"`
	Workloads  []*workloadResult `json:"workloads"`
}

func newResult(cfg config) *result {
	return &result{
		Seed: cfg.Seed, Quick: cfg.Quick, Seconds: cfg.Window.Seconds(),
		GitSHA: gitSHA(), Date: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelTier: tensor.KernelTier(),
	}
}

// gitSHA is the revision `go build` stamped into the binary; `go run`
// and builds outside a git checkout stamp none.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// print writes every metric by name with its unit, then the stage table.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, correct %v\n", r.Name, r.Attempted, r.Failed, r.Correct)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", r.FirstError)
	}
	for _, tab := range []struct {
		defs []metricDef
		got  map[string]metric
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		for _, d := range tab.defs {
			m, ok := tab.got[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-28s %14.4f %-5s", d.Name, m.Value, m.Unit)
			if len(m.Segments) > 1 {
				lo, hi := m.Segments[0], m.Segments[0]
				for _, v := range m.Segments {
					lo, hi = min(lo, v), max(hi, v)
				}
				fmt.Fprintf(w, "  segments min/med/max %.4f / %.4f / %.4f", lo, median(m.Segments), hi)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Stages) > 0 {
		fmt.Fprintf(w, "  stage table (us; rows sum to the untraced answer_p50_us of this pass):\n")
		var sum float64
		for _, s := range r.Stages {
			fmt.Fprintf(w, "    %-14s %12.3f\n", s.Name, s.US)
			sum += s.US
		}
		fmt.Fprintf(w, "    %-14s %12.3f\n", "total", sum)
		fmt.Fprintf(w, "  spans (traced window, p50 us): server.handler %.3f, client.request self %.3f\n", r.spanHandlerUS, r.spanClientSelfUS)
	}
}
