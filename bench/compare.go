package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) comparison.
const (
	same       = "same"
	worse      = "worse"      // b is worse than a by more than the bound
	unresolved = "unresolved" // the values behind a or b spread wider than the bound
)

type compareRow struct {
	Workload, Metric string
	A, B             float64
	Change           float64 // share of |A| by which B is worse (negative = better)
	Bound, Spread    float64
	Verdict          string
}

// compareResults holds b against the baseline a: one row per workload
// and end-to-end metric, plus error_rate, which may not rise at all.
func compareResults(a, b *result) ([]compareRow, error) {
	if a.Quick || b.Quick {
		return nil, fmt.Errorf("compare: a -quick result measures nothing comparable")
	}
	var rows []compareRow
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			r := compareRow{Workload: wa.Name, Metric: d.Name, A: ma.Value, B: mb.Value, Bound: d.Bound,
				Spread: math.Max(spread(ma.Segments), spread(mb.Segments)), Verdict: same}
			if ma.Value != 0 {
				r.Change = (mb.Value - ma.Value) / math.Abs(ma.Value)
				if d.Better == "higher" {
					r.Change = -r.Change
				}
			}
			switch {
			case r.Spread > d.Bound:
				r.Verdict = unresolved
			case r.Change > d.Bound:
				r.Verdict = worse
			}
			rows = append(rows, r)
		}
		ea := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		eb := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		r := compareRow{Workload: wa.Name, Metric: "error_rate", A: ea, B: eb, Change: eb - ea, Verdict: same}
		if eb > ea {
			r.Verdict = worse
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCompare prints the comparison of two result files and returns the
// exit code: 0 all same, 1 something worse, 2 something unresolved.
func runCompare(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readResult(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return 0, err
	}
	rows, err := compareResults(a, b)
	if err != nil {
		return 0, err
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-24s %14.4f %14.4f %8.2f%% %6.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Change, 100*r.Bound, 100*r.Spread, r.Verdict)
		switch {
		case r.Verdict == worse:
			code = 1
		case r.Verdict == unresolved && code == 0:
			code = 2
		}
	}
	return code, nil
}
