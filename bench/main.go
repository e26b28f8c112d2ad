// Command bench is the repository's benchmark: request latency on the
// path mnnfast-serve executes, over five story workloads, with a
// per-layer table taken from the outside in. See README.md.
//
//	go run ./bench -seed 1                    # every workload, both passes
//	go run ./bench -compare a.json b.json     # hold b against baseline a
//	go run ./bench -workload long_exact -seed 3 -seconds 12 -trace 0
//
// The last form is what BENCHMARK.json's command runs (through run.sh):
// one workload, one pass, and as the last line of standard output one
// JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "workload seed: the only source of randomness in the generated requests")
		seconds = flag.Float64("seconds", 0, "measured window per workload (0 = 12, or 1 with -quick)")
		trace   = flag.Int("trace", -1, "0 = end-to-end pass only, 1 = traced per-layer pass only, -1 = both")
		quick   = flag.Bool("quick", false, "small sizes and short windows, for tests; results are refused by -compare")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		code, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	}
	if *seconds == 0 {
		*seconds = 12
		if *quick {
			*seconds = 1
		}
	}
	run := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run = []workload{w}
	}

	cfg := newConfig(*quick, *seed, *seconds)
	res := newResult(cfg)
	ok := true
	for _, w := range run {
		r, err := runWorkload(cfg, w, *trace, *outDir)
		if err != nil {
			fatal(err)
		}
		r.print(os.Stdout)
		res.Workloads = append(res.Workloads, r)
		ok = ok && r.Correct
	}

	if len(run) > 1 {
		path := filepath.Join(*outDir, fmt.Sprintf("result_seed%d.json", *seed))
		b, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(path, b, 0o644)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println("result written to", path)
	} else {
		fmt.Println(driverLine(res.Workloads[0]))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkload runs the passes trace selects and merges them into one
// result; requests of both passes count toward attempted and failed.
func runWorkload(cfg config, w workload, trace int, outDir string) (*workloadResult, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var res *workloadResult
	if trace != 1 {
		var err error
		if res, err = runEndToEnd(cfg, w); err != nil {
			return nil, err
		}
	}
	if trace != 0 {
		t, err := runTraced(cfg, w, filepath.Join(outDir, "trace_"+w.Name+".json"))
		if err != nil {
			return nil, err
		}
		if res == nil {
			return t, nil
		}
		res.PerLayer, res.Stages = t.PerLayer, t.Stages
		res.spanHandlerUS, res.spanClientSelfUS = t.spanHandlerUS, t.spanClientSelfUS
		res.Attempted, res.Failed = res.Attempted+t.Attempted, res.Failed+t.Failed
		res.Correct = res.Correct && t.Correct
		if res.FirstError == "" {
			res.FirstError = t.FirstError
		}
	}
	return res, nil
}

// driverLine is the one-line result BENCHMARK.json's driver reads.
func driverLine(r *workloadResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, tab := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		for name, m := range tab {
			metrics[name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings: cannot fail
	}
	return string(b)
}
