// Package experiments reproduces every table and figure of the MnnFast
// paper's evaluation (§5). Each experiment is a pure function from a
// Config to a structured result that renders as the same rows/series
// the paper reports; cmd/mnnfast-bench and the repository-root
// benchmarks drive them. The engine-driven figures run internal/core's
// serial Baseline and Column engines under a cache-simulator tracer,
// so every figure except "measured" is a function of its Config alone.
//
// Absolute numbers depend on the modelled hardware constants (see
// internal/perfmodel); what the reproduction is accountable for is the
// shape of each result — who wins, by roughly what factor, and where
// the knees fall. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Config scales the experiment suite. The zero value is unusable; use
// DefaultConfig (paper-regime sizes scaled to laptop memory) or
// QuickConfig (seconds-fast, for tests).
type Config struct {
	Seed     int64
	NS       int // story sentences in the knowledge database
	ED       int // embedding dimension (CPU experiments; Table 1: 48)
	Chunk    int // column-engine chunk size (Table 1: 1000)
	Threads  []int
	Channels []int
	// Training-based experiments (Fig 6, 7).
	TrainStories int
	StoryLen     int
	Epochs       int
	// Suite20 makes Fig 7 average over the 20-configuration task suite
	// (babi.Suite20), matching the paper's 20-task averaging; false
	// averages over the 8 base families (much faster).
	Suite20 bool
	// LLC geometry for the cache-simulation experiments.
	LLCBytes int64
}

// DefaultConfig mirrors the paper's CPU configuration (Table 1) with
// the database scaled from 100M to 256K sentences so that working-set :
// LLC ratios stay in the paper's regime while fitting laptop memory.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		NS:           1 << 18,
		ED:           48,
		Chunk:        1000,
		Threads:      []int{1, 2, 4, 8, 12, 16, 20},
		Channels:     []int{1, 2, 4},
		TrainStories: 1200,
		StoryLen:     20,
		Epochs:       60,
		Suite20:      true,
		LLCBytes:     20 << 20,
	}
}

// QuickConfig shrinks everything for unit tests and smoke runs.
func QuickConfig() Config {
	return Config{
		Seed:         1,
		NS:           1 << 13,
		ED:           32,
		Chunk:        256,
		Threads:      []int{1, 2, 4, 8},
		Channels:     []int{1, 2, 4},
		TrainStories: 120,
		StoryLen:     10,
		Epochs:       8,
		LLCBytes:     1 << 20,
	}
}

// Table is a printable experiment result.
type Table struct {
	ID      string // experiment id, e.g. "fig9"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Headers)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func in(x int) string      { return fmt.Sprintf("%d", x) }
func i64(x int64) string   { return fmt.Sprintf("%d", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
