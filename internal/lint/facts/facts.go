// Package facts defines the serialized per-package fact format that
// makes mnnfast-lint a whole-program analysis: each package exports a
// compact summary of its lint-relevant surface — hot/cold annotations,
// pool accessor roles, caller-held-lock contracts, guarded exported
// fields, latent hot-path violations, and the lock-acquisition edges
// observed in its bodies — and every dependent package imports those
// summaries alongside the compiled export data it already type-checks
// against. The design mirrors golang.org/x/tools go/analysis modular
// facts (dependency-direction flow, one file per package, cached with
// the build unit) but stays stdlib-only like the rest of internal/lint.
//
// This package holds only the data model and its serialization; the
// computation lives in internal/lint/factbuild so analyzers can import
// the types without dragging the whole scanner in (and so the analysis
// package can reference Set without an import cycle).
package facts

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Version is the facts wire version. It participates in the vet tool's
// -V=full identity, so bumping it invalidates stale cached facts.
const Version = "v1"

// header is the first line of a serialized facts file. Decoders reject
// anything else (including the pre-facts stamp files older mnnfast-lint
// versions wrote), which downgrades gracefully to "no facts".
const header = "mnnfast-facts " + Version

// Violation is one latent hot-path violation inside a function that is
// not itself hot: the construct would be reported by hotalloc if the
// function ever joined the hot set. Callers in other packages that pull
// the function onto the hot path report these at the call site.
type Violation struct {
	// Construct is the hotalloc construct key (append, fmt, strcat,
	// lit, box, closure, defer, timenow).
	Construct string `json:"construct"`
	// Pos is the violation site, "file.go:line:col" with the file
	// reduced to its base name so facts are machine-independent.
	Pos string `json:"pos"`
	// Msg is the human-readable finding text.
	Msg string `json:"msg"`
	// Path is the call chain from the exporting function down to the
	// violating function, outermost first; empty when the violation is
	// in the exporting function's own body.
	Path []string `json:"path,omitempty"`
}

// Func is the exported fact set of one declared function. The map key
// identifying it is its symbol: "Name" for a plain function,
// "Recv.Name" for a method (pointer receivers stripped).
type Func struct {
	// Hot marks the function hot in its home package — annotated
	// //mnnfast:hotpath or reached from one through same-package calls.
	// Hot functions are fully checked where they are declared, so
	// callers need not re-check them.
	Hot bool `json:"hot,omitempty"`
	// Cold marks an explicit //mnnfast:coldpath: cross-package hot
	// propagation stops here.
	Cold bool `json:"cold,omitempty"`
	// PoolGet/PoolPut mark //mnnfast:pool-get / //mnnfast:pool-put
	// accessor wrappers, so poolescape recognizes imported wrappers
	// without a hardcoded list.
	PoolGet bool `json:"pool_get,omitempty"`
	PoolPut bool `json:"pool_put,omitempty"`
	// Locked lists the //mnnfast:locked expressions the function
	// declares (as spelled in its home package).
	Locked []string `json:"locked,omitempty"`
	// Acquires lists the lock class IDs (see LockEdge) this function
	// may acquire, directly or through same-package callees.
	Acquires []string `json:"acquires,omitempty"`
	// Retains lists the lock classes still held when the function
	// returns (a server.acquire-style lock-and-hand-to-caller shape);
	// callers inherit them into their own held sets.
	Retains []string `json:"retains,omitempty"`
	// Violations are the latent hot-path violations reachable from this
	// function while it is not hot (capped, deduplicated).
	Violations []Violation `json:"violations,omitempty"`
}

// LockEdge records that somewhere in the package a lock of class From
// was held while a lock of class To was acquired. Lock classes are
// stable cross-package identifiers: "pkgpath.Type.field" for a mutex
// struct field, "pkgpath.var" for a package-level mutex.
type LockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Pos is the acquisition site of To ("file.go:line:col", base name).
	Pos string `json:"pos"`
	// Func is the symbol of the function containing the acquisition.
	Func string `json:"func"`
}

// Pin is one //mnnfast:lockorder directive: the package declares that
// Before is (and must stay) acquired before After. A self pin
// (Before == After) blesses ordered acquisition within one lock class,
// e.g. the batch dispatcher taking several session locks.
type Pin struct {
	Before string `json:"before"`
	After  string `json:"after"`
	// Pos is where the directive appears ("file.go:line", base name).
	Pos string `json:"pos"`
}

// Package is the complete fact set one package exports.
type Package struct {
	// Path is the package's import path.
	Path string `json:"path"`
	// Funcs maps function symbols to their facts. Symbols with an
	// all-zero fact set are omitted.
	Funcs map[string]*Func `json:"funcs,omitempty"`
	// Guards maps "Type.Field" of `// guarded by <mu>` annotated struct
	// fields to the guarding sibling field name, so dependent packages
	// can check accesses to imported guarded fields.
	Guards map[string]string `json:"guards,omitempty"`
	// Edges are the lock-acquisition-order edges observed in this
	// package's bodies (not including imported edges — dependents merge).
	Edges []LockEdge `json:"edges,omitempty"`
	// Pins are the lock orderings this package pins.
	Pins []Pin `json:"pins,omitempty"`
}

// Func returns the named symbol's facts, or nil.
func (p *Package) Func(symbol string) *Func {
	if p == nil {
		return nil
	}
	return p.Funcs[symbol]
}

// Zero reports whether the fact entry carries no information and can be
// dropped from the export.
func (f *Func) Zero() bool {
	return !f.Hot && !f.Cold && !f.PoolGet && !f.PoolPut &&
		len(f.Locked) == 0 && len(f.Acquires) == 0 && len(f.Retains) == 0 &&
		len(f.Violations) == 0
}

// normalize sorts every slice so Encode output is deterministic.
func (p *Package) normalize() {
	for _, f := range p.Funcs {
		sort.Strings(f.Locked)
		sort.Strings(f.Acquires)
		sort.Strings(f.Retains)
		sort.Slice(f.Violations, func(i, j int) bool {
			a, b := f.Violations[i], f.Violations[j]
			if a.Pos != b.Pos {
				return a.Pos < b.Pos
			}
			return a.Construct < b.Construct
		})
	}
	sort.Slice(p.Edges, func(i, j int) bool {
		a, b := p.Edges[i], p.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Pos < b.Pos
	})
	sort.Slice(p.Pins, func(i, j int) bool {
		a, b := p.Pins[i], p.Pins[j]
		if a.Before != b.Before {
			return a.Before < b.Before
		}
		return a.After < b.After
	})
}

// Encode writes the package facts: a version header line followed by
// one JSON document. Output is deterministic (slices sorted, JSON map
// keys sorted by encoding/json).
func (p *Package) Encode(w io.Writer) error {
	p.normalize()
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	return enc.Encode(p)
}

// Decode reads facts written by Encode. A stream that does not start
// with the current version header returns (nil, nil): older stamp files
// and foreign vet facts degrade to "no facts" rather than an error.
func Decode(r io.Reader) (*Package, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil && err != io.EOF {
		return nil, err
	}
	if strings.TrimRight(line, "\n") != header {
		return nil, nil
	}
	var p Package
	if err := json.NewDecoder(br).Decode(&p); err != nil {
		return nil, fmt.Errorf("facts: decoding: %v", err)
	}
	return &p, nil
}

// Set is the driver-side collection of every fact package loaded for a
// run, keyed by import path. Analyzers reach it through
// analysis.Pass.Facts; a nil *Set is valid and empty.
type Set struct {
	pkgs  map[string]*Package
	order []string // insertion (dependency) order
}

// NewSet returns an empty fact set.
func NewSet() *Set { return &Set{pkgs: make(map[string]*Package)} }

// Add registers a package's facts (replacing any previous entry).
func (s *Set) Add(p *Package) {
	if s == nil || p == nil {
		return
	}
	if _, seen := s.pkgs[p.Path]; !seen {
		s.order = append(s.order, p.Path)
	}
	s.pkgs[p.Path] = p
}

// Pkg returns the facts for an import path, or nil.
func (s *Set) Pkg(path string) *Package {
	if s == nil {
		return nil
	}
	return s.pkgs[path]
}

// All returns every fact package in dependency (insertion) order.
func (s *Set) All() []*Package {
	if s == nil {
		return nil
	}
	out := make([]*Package, 0, len(s.order))
	for _, path := range s.order {
		out = append(out, s.pkgs[path])
	}
	return out
}

// FuncFact looks a symbol up across the set.
func (s *Set) FuncFact(pkgPath, symbol string) *Func {
	return s.Pkg(pkgPath).Func(symbol)
}
