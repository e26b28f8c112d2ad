// Package mnnfast is a Go reproduction of "MnnFast: A Fast and Scalable
// System Architecture for Memory-Augmented Neural Networks" (Jang, Kim,
// Jo, Lee, Kim — ISCA 2019).
//
// The package is the public facade over the repository's internal
// packages. It exposes:
//
//   - the paper's inference engines: the Baseline layer-by-layer
//     dataflow and the Column engine implementing the column-based
//     algorithm with lazy softmax, streaming, and zero-skipping; and
//   - the evaluation harness reproducing every table and figure of the
//     paper (experiments).
//
// The trainable end-to-end memory network and the QA server built on
// it live in internal/memnn, internal/server and cmd/mnnfast-serve.
//
// Quick start:
//
//	rng := rand.New(rand.NewSource(1))
//	mem, _ := mnnfast.NewMemory(
//	    tensor.GaussianMatrix(rng, 100000, 48, 0.5),
//	    tensor.GaussianMatrix(rng, 100000, 48, 0.5))
//	eng := mnnfast.NewColumn(mem, mnnfast.Options{
//	    ChunkSize: 1000, Streaming: true, SkipThreshold: 0.1})
//	o := make(tensor.Vector, 48)
//	stats := eng.Infer(u, o)
//
// See examples/ for runnable programs and cmd/mnnfast-bench for the
// paper's evaluation suite.
package mnnfast

import (
	"io"

	"mnnfast/internal/core"
	"mnnfast/internal/experiments"
	"mnnfast/internal/tensor"
)

// Engine computes response vectors against a fixed memory; implemented
// by the Baseline and Column engines. An engine is not safe for
// concurrent use.
type Engine = core.Engine

// Memory is the embedded knowledge database (M_IN and M_OUT).
type Memory = core.Memory

// Options configures an engine (chunk size, streaming, zero-skipping
// threshold, tracing).
type Options = core.Options

// Stats counts the work one or more inferences performed.
type Stats = core.Stats

// NewMemory wraps and validates the two memory matrices.
func NewMemory(in, out *tensor.Matrix) (*Memory, error) { return core.NewMemory(in, out) }

// NewBaseline returns the paper's baseline layer-by-layer engine.
func NewBaseline(mem *Memory, opt Options) Engine { return core.NewBaseline(mem, opt) }

// NewColumn returns the MnnFast column-based engine; enable Streaming
// and SkipThreshold in opt for the full MnnFast configuration.
func NewColumn(mem *Memory, opt Options) Engine { return core.NewColumn(mem, opt) }

// ExperimentConfig scales the evaluation suite.
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig mirrors the paper's configuration (Table 1)
// scaled to laptop memory.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// QuickExperimentConfig is a seconds-fast configuration for smoke runs.
func QuickExperimentConfig() ExperimentConfig { return experiments.QuickConfig() }

// ExperimentIDs lists the reproducible tables and figures in paper
// order (table1, fig3, fig4, …, energy, measured).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment executes one experiment by ID and writes its table to w.
func RunExperiment(w io.Writer, id string, cfg ExperimentConfig) error {
	t, err := experiments.Run(id, cfg)
	if err != nil {
		return err
	}
	t.Fprint(w)
	return nil
}
