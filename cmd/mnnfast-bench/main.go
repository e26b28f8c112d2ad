// Command mnnfast-bench reproduces the MnnFast paper's evaluation:
// every table and figure of §5 as a printable table.
//
// Usage:
//
//	mnnfast-bench -list
//	mnnfast-bench -run fig9,fig11          # specific experiments
//	mnnfast-bench -run all -quick          # smoke-sized pass
//	mnnfast-bench -run fig3 -ns 1048576    # override the database size
//
// Default sizing follows the paper's Table 1 with the database scaled
// from 100M to 256K sentences (see DESIGN.md for the substitution map).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mnnfast/internal/experiments"
	"mnnfast/internal/tensor"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		verify  = flag.Bool("verify", false, "run the claim-shape self-checks and exit non-zero on failure")
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		quickM  = flag.Bool("quick", false, "use the seconds-fast smoke configuration")
		seed    = flag.Int64("seed", 0, "override RNG seed (0 keeps the config default)")
		ns      = flag.Int("ns", 0, "override database size in sentences")
		ed      = flag.Int("ed", 0, "override embedding dimension")
		chunk   = flag.Int("chunk", 0, "override column-engine chunk size")
		stories = flag.Int("stories", 0, "override training-set size (fig6/fig7)")
		epochs  = flag.Int("epochs", 0, "override training epochs (fig6/fig7)")
		format  = flag.String("format", "text", "output format: text, md, csv")
		tier    = flag.String("kernel-tier", "auto", "kernel tier override: auto, scalar, go, or avx2 (if available)")
	)
	flag.Parse()

	if err := tensor.SetKernelTier(*tier); err != nil {
		fmt.Fprintf(os.Stderr, "mnnfast-bench: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *quickM {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *ns > 0 {
		cfg.NS = *ns
	}
	if *ed > 0 {
		cfg.ED = *ed
	}
	if *chunk > 0 {
		cfg.Chunk = *chunk
	}
	if *stories > 0 {
		cfg.TrainStories = *stories
	}
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}

	if *verify {
		failed := 0
		for _, c := range experiments.VerifyAll(cfg) {
			status := "PASS"
			if !c.OK {
				status = "FAIL"
				failed++
			}
			fmt.Printf("%s  %-50s %s\n", status, c.Name, c.Detail)
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "mnnfast-bench: %d claim-shape check(s) failed\n", failed)
			os.Exit(1)
		}
		return
	}

	var ids []string
	if *run == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "mnnfast-bench: no experiments selected")
		os.Exit(2)
	}
	for _, id := range ids {
		t, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mnnfast-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := t.Render(os.Stdout, experiments.Format(*format)); err != nil {
			fmt.Fprintf(os.Stderr, "mnnfast-bench: %v\n", err)
			os.Exit(2)
		}
	}
}
