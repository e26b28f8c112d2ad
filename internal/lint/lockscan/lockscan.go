// Package lockscan extracts a package's lock-acquisition structure: the
// lock classes each function may acquire (directly or through
// same-package callees), the classes it still holds when it returns,
// and the acquisition-order edges "class A was held when class B was
// acquired". Two consumers share it: factbuild serializes the result
// into the package's exported facts, and the lockorder analyzer merges
// local edges with imported ones to detect cross-package ordering
// cycles.
//
// Lock classes are stable cross-package identifiers:
//
//	pkgpath.Type.field   a mutex struct field (receiver type stripped
//	                     of pointers, embedded paths joined with dots)
//	pkgpath.var          a package-level mutex variable
//
// Locks stored in local variables have no stable class and are skipped.
// Held-ness uses the same source-order heuristic as guardedby: the
// nearest preceding Lock/Unlock event on the class decides, deferred
// unlocks hold to function return, and early-exit unlocks
// (`if c { mu.Unlock(); return }`) do not end the region for the code
// after the block. Two shapes beyond direct calls are modeled:
//
//   - retention: a function whose last event on a class is a lock still
//     holds it when it returns (the server.acquire shape — acquire on
//     behalf of the caller). Call sites inherit retained classes into
//     the caller's held set, to a fixpoint across same-package
//     functions and through imported Retains facts.
//   - loop-carried self hold: acquiring a class inside a loop — directly
//     or via a retaining callee — without releasing it before the loop
//     ends means the next iteration acquires while the previous hold is
//     live. That yields a self edge C→C, the multi-lock dispatcher
//     shape a `//mnnfast:lockorder C < C` self pin blesses.
package lockscan

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mnnfast/internal/lint/directives"
	"mnnfast/internal/lint/facts"
	"mnnfast/internal/lint/walk"
)

// Edge is one locally-observed ordering edge: From was held when To was
// acquired at Pos inside function Func (a facts symbol).
type Edge struct {
	From, To string
	Pos      token.Pos
	Func     string
}

// Result is the lock structure of one package.
type Result struct {
	// Acquires maps each function symbol to the sorted set of lock
	// classes it may acquire, transitively through same-package callees
	// and through imported callees' exported Acquires facts.
	Acquires map[string][]string
	// Retains maps each function symbol to the sorted classes still
	// held when it returns.
	Retains map[string][]string
	// Edges are the ordering edges observed in this package's bodies.
	Edges []Edge
}

// Symbol returns the facts symbol of a declared function: "Name" or
// "Recv.Name" with pointer receivers stripped.
func Symbol(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.ParenExpr:
			t = u.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		case *ast.Ident:
			return u.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// ObjSymbol returns the facts symbol for a function object: "Name" or
// "Recv.Name".
func ObjSymbol(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// ClassOf resolves a mutex-valued expression to its lock class, or ""
// when it has no stable class (locals, map/slice elements, complex
// expressions).
func ClassOf(info *types.Info, expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.ParenExpr:
		return ClassOf(info, e.X)
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return "" // local or parameter: per-instance, no stable class
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return fieldClass(sel)
		}
		if x, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[x].(*types.PkgName); isPkg {
				if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
			}
		}
	}
	return ""
}

// fieldClass names the class of a field selection: the receiver's named
// type plus the field path (embedded hops included).
func fieldClass(sel *types.Selection) string {
	named := derefNamed(sel.Recv())
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	parts := []string{named.Obj().Pkg().Path(), named.Obj().Name()}
	t := sel.Recv()
	for _, idx := range sel.Index() {
		s := derefStruct(t)
		if s == nil || idx >= s.NumFields() {
			return ""
		}
		f := s.Field(idx)
		parts = append(parts, f.Name())
		t = f.Type()
	}
	return strings.Join(parts, ".")
}

func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func derefStruct(t types.Type) *types.Struct {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	s, _ := t.Underlying().(*types.Struct)
	return s
}

var lockMethods = map[string]bool{
	"Lock": false, "RLock": false,
	"Unlock": true, "RUnlock": true,
}

// event is one classified lock event in a scope: a Lock/Unlock call, or
// a synthesized hold for a class a callee retained past its return.
type event struct {
	class  string
	pos    token.Pos
	unlock bool
	loop   ast.Node // innermost enclosing loop, nil outside loops
}

// lockCall classifies a call expression as a sync lock event, resolving
// the mutex expression's class. Non-lock calls and calls on lockers
// outside package sync return ok=false.
func lockCall(info *types.Info, call *ast.CallExpr) (class string, unlock, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	unlock, known := lockMethods[sel.Sel.Name]
	if !known {
		return "", false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	msel := info.Selections[sel]
	if msel != nil && len(msel.Index()) > 1 {
		// Promoted method: the receiver type embeds the mutex. The class
		// is the receiver type plus the embedded field path.
		parts := msel.Index()
		t := msel.Recv()
		named := derefNamed(t)
		if named == nil || named.Obj().Pkg() == nil {
			return "", unlock, false
		}
		classParts := []string{named.Obj().Pkg().Path(), named.Obj().Name()}
		for _, idx := range parts[:len(parts)-1] {
			s := derefStruct(t)
			if s == nil || idx >= s.NumFields() {
				return "", unlock, false
			}
			f := s.Field(idx)
			classParts = append(classParts, f.Name())
			t = f.Type()
		}
		return strings.Join(classParts, "."), unlock, true
	}
	class = ClassOf(info, sel.X)
	return class, unlock, class != ""
}

// callSite is one named call in a scope.
type callSite struct {
	callee *types.Func
	pos    token.Pos
	loop   ast.Node // innermost enclosing loop at the call, nil outside
	inDecl bool     // in the declared body (not a nested literal)
}

// fnScan is the per-function raw scan state.
type fnScan struct {
	fi    *directives.FuncInfo
	sym   string
	base  []string // resolved //mnnfast:locked classes
	raw   []event  // declared-body lock events, source order
	calls []callSite
	// deferred holds the classes with a deferred unlock in the declared
	// body: held for the rest of the body, but released at return, so
	// they cancel retention.
	deferred map[string]bool
	// litEvents holds each nested literal's own events (literals run
	// under their own locks, not the declaration's).
	litEvents [][]event
	litCalls  [][]callSite
}

// Scan computes the lock structure of a package. di is the package's
// directive info, deps the imported facts of its dependencies (nil is
// fine).
func Scan(fset *token.FileSet, info *types.Info, di *directives.Info, deps *facts.Set) *Result {
	res := &Result{
		Acquires: make(map[string][]string),
		Retains:  make(map[string][]string),
	}

	var scans []*fnScan
	bySym := make(map[string]*fnScan)
	for _, fi := range di.Funcs() {
		if fi.Decl.Body == nil {
			continue
		}
		fs := &fnScan{fi: fi, sym: Symbol(fi.Decl), base: lockedClasses(info, fi)}
		for _, sc := range walk.Scopes(fi.Decl) {
			events, calls, deferred := collectScope(info, sc)
			if sc.Lit == nil {
				fs.raw, fs.calls, fs.deferred = events, calls, deferred
			} else {
				fs.litEvents = append(fs.litEvents, events)
				fs.litCalls = append(fs.litCalls, calls)
			}
		}
		scans = append(scans, fs)
		if _, dup := bySym[fs.sym]; !dup {
			bySym[fs.sym] = fs
		}
	}

	// Retained classes to a fixpoint: a caller inherits what a callee
	// retains unless it releases it later in its own body.
	retains := make(map[string]map[string]bool)
	calleeRetains := func(fs *fnScan, cs callSite) []string {
		if local := localCallee(di, bySym, cs.callee); local != nil {
			var out []string
			for c := range retains[local.sym] {
				out = append(out, c)
			}
			sort.Strings(out)
			return out
		}
		if cs.callee.Pkg() != nil {
			if ff := deps.FuncFact(cs.callee.Pkg().Path(), ObjSymbol(cs.callee)); ff != nil {
				return ff.Retains
			}
		}
		return nil
	}
	for _, fs := range scans {
		retains[fs.sym] = retainedClasses(fs.raw, nil, fs.deferred)
	}
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, fs := range scans {
			synth := synthEvents(fs, calleeRetains)
			r := retainedClasses(fs.raw, synth, fs.deferred)
			if !sameSet(retains[fs.sym], r) {
				retains[fs.sym] = r
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Acquires: direct raw locks plus everything callees may acquire,
	// same-package fixpoint plus imported Acquires facts (already
	// transitive at their home).
	acquires := make(map[string]map[string]bool)
	for _, fs := range scans {
		set := make(map[string]bool)
		for _, e := range fs.raw {
			if !e.unlock {
				set[e.class] = true
			}
		}
		for _, evs := range fs.litEvents {
			for _, e := range evs {
				if !e.unlock {
					set[e.class] = true
				}
			}
		}
		acquires[fs.sym] = set
	}
	allCalls := func(fs *fnScan) []callSite {
		out := append([]callSite(nil), fs.calls...)
		for _, cs := range fs.litCalls {
			out = append(out, cs...)
		}
		return out
	}
	for _, fs := range scans {
		for _, cs := range allCalls(fs) {
			if cs.callee.Pkg() == nil || localCallee(di, bySym, cs.callee) != nil {
				continue
			}
			if ff := deps.FuncFact(cs.callee.Pkg().Path(), ObjSymbol(cs.callee)); ff != nil {
				for _, c := range ff.Acquires {
					acquires[fs.sym][c] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fs := range scans {
			for _, cs := range allCalls(fs) {
				local := localCallee(di, bySym, cs.callee)
				if local == nil {
					continue
				}
				for c := range acquires[local.sym] {
					if !acquires[fs.sym][c] {
						acquires[fs.sym][c] = true
						changed = true
					}
				}
			}
		}
	}

	// Edge emission per function, with retained-callee holds synthesized
	// into the event stream.
	for _, fs := range scans {
		emitEdges(res, fs, fs.raw, synthEvents(fs, calleeRetains), fs.base, fs.calls, func(cs callSite) []string {
			if local := localCallee(di, bySym, cs.callee); local != nil {
				return setToSorted(acquires[local.sym])
			}
			if cs.callee.Pkg() != nil {
				if ff := deps.FuncFact(cs.callee.Pkg().Path(), ObjSymbol(cs.callee)); ff != nil {
					return ff.Acquires
				}
			}
			return nil
		})
		for i := range fs.litEvents {
			emitEdges(res, fs, fs.litEvents[i], nil, nil, fs.litCalls[i], func(cs callSite) []string {
				if local := localCallee(di, bySym, cs.callee); local != nil {
					return setToSorted(acquires[local.sym])
				}
				if cs.callee.Pkg() != nil {
					if ff := deps.FuncFact(cs.callee.Pkg().Path(), ObjSymbol(cs.callee)); ff != nil {
						return ff.Acquires
					}
				}
				return nil
			})
		}
	}

	for sym, set := range acquires {
		if s := setToSorted(set); len(s) > 0 {
			res.Acquires[sym] = s
		}
	}
	for sym, set := range retains {
		if s := setToSorted(set); len(s) > 0 {
			res.Retains[sym] = s
		}
	}
	dedupEdges(res)
	return res
}

// localCallee resolves a callee to this package's scan state, or nil.
func localCallee(di *directives.Info, bySym map[string]*fnScan, fn *types.Func) *fnScan {
	if di.ByObj(fn) == nil {
		return nil
	}
	return bySym[ObjSymbol(fn)]
}

// collectScope gathers the raw lock events, named call sites, and
// deferred-unlock classes of one scope in source order.
func collectScope(info *types.Info, sc walk.Scope) ([]event, []callSite, map[string]bool) {
	var events []event
	var calls []callSite
	deferred := make(map[string]bool)
	walk.InScope(sc.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if class, unlock, isLock := lockCall(info, call); isLock {
			if unlock && walk.InDefer(stack) {
				deferred[class] = true
				return true
			}
			if unlock && walk.TerminalInList(stack, sc.Body) {
				return true
			}
			events = append(events, event{class: class, pos: call.Pos(), unlock: unlock, loop: walk.EnclosingLoop(stack)})
			return true
		}
		var id *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			calls = append(calls, callSite{callee: fn, pos: call.Pos(), loop: walk.EnclosingLoop(stack), inDecl: sc.Lit == nil})
		}
		return true
	})
	return events, calls, deferred
}

// synthEvents turns each call to a retaining callee into a synthetic
// lock event at the call site, so held-set queries downstream of the
// call see the inherited hold.
func synthEvents(fs *fnScan, calleeRetains func(*fnScan, callSite) []string) []event {
	var synth []event
	for _, cs := range fs.calls {
		for _, c := range calleeRetains(fs, cs) {
			synth = append(synth, event{class: c, pos: cs.pos, loop: cs.loop})
		}
	}
	return synth
}

// retainedClasses returns the classes whose last event (raw plus
// synthesized, source order) is a lock — still held at return. A
// deferred unlock releases its class at return, cancelling retention.
func retainedClasses(raw, synth []event, deferred map[string]bool) map[string]bool {
	all := merged(raw, synth)
	last := make(map[string]event)
	for _, e := range all {
		if prev, ok := last[e.class]; !ok || e.pos >= prev.pos {
			last[e.class] = e
		}
	}
	out := make(map[string]bool)
	for class, e := range last {
		if !e.unlock && !deferred[class] {
			out[class] = true
		}
	}
	return out
}

func merged(raw, synth []event) []event {
	all := make([]event, 0, len(raw)+len(synth))
	all = append(all, raw...)
	all = append(all, synth...)
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	return all
}

// emitEdges produces the ordering edges of one scope: direct
// acquisitions against the held set, loop-carried self edges (direct or
// inherited), and held→callee-acquires edges for calls under lock.
func emitEdges(res *Result, fs *fnScan, raw, synth []event, base []string, calls []callSite, calleeAcquires func(callSite) []string) {
	all := merged(raw, synth)
	heldAt := func(pos token.Pos) []string {
		held := append([]string(nil), base...)
		last := make(map[string]event)
		for _, e := range all {
			if e.pos < pos {
				if prev, ok := last[e.class]; !ok || e.pos > prev.pos {
					last[e.class] = e
				}
			}
		}
		for class, e := range last {
			if !e.unlock {
				held = append(held, class)
			}
		}
		sort.Strings(held)
		return held
	}

	for _, e := range raw {
		if e.unlock {
			continue
		}
		for _, held := range heldAt(e.pos) {
			res.Edges = append(res.Edges, Edge{From: held, To: e.class, Pos: e.pos, Func: fs.sym})
		}
		if e.loop != nil && !releasedBefore(raw, e.class, e.pos, e.loop.End()) {
			res.Edges = append(res.Edges, Edge{From: e.class, To: e.class, Pos: e.pos, Func: fs.sym})
		}
	}
	// Synthesized holds acquired in a loop and not released before the
	// loop ends: the dispatcher shape, one self edge per class.
	for _, e := range synth {
		if e.loop != nil && !releasedBefore(raw, e.class, e.pos, e.loop.End()) {
			res.Edges = append(res.Edges, Edge{From: e.class, To: e.class, Pos: e.pos, Func: fs.sym})
		}
	}
	for _, cs := range calls {
		held := heldAt(cs.pos)
		if len(held) == 0 {
			continue
		}
		for _, to := range calleeAcquires(cs) {
			for _, from := range held {
				res.Edges = append(res.Edges, Edge{From: from, To: to, Pos: cs.pos, Func: fs.sym})
			}
		}
	}
}

// releasedBefore reports whether class is unlocked in (pos, end).
func releasedBefore(events []event, class string, pos, end token.Pos) bool {
	for _, e := range events {
		if e.class == class && e.unlock && e.pos > pos && e.pos < end {
			return true
		}
	}
	return false
}

// lockedClasses resolves a function's //mnnfast:locked expressions
// ("sess.mu", "it.sess.mu") to lock classes by walking the spelled path
// through the types of the function's identifiers and struct fields:
// the root identifier is looked up among the function's parameters,
// receiver, and local definitions; each subsequent component is a field
// hop; the final component names the mutex field.
func lockedClasses(info *types.Info, fi *directives.FuncInfo) []string {
	if len(fi.Locked) == 0 {
		return nil
	}
	seen := make(map[string]bool)
	var classes []string
	for _, spec := range fi.Locked {
		if class := resolveLockedExpr(info, fi.Decl, spec); class != "" && !seen[class] {
			seen[class] = true
			classes = append(classes, class)
		}
	}
	sort.Strings(classes)
	return classes
}

func resolveLockedExpr(info *types.Info, decl *ast.FuncDecl, spec string) string {
	parts := strings.Split(spec, ".")
	if len(parts) < 2 {
		return "" // a bare local mutex has no stable class
	}
	root := findVar(info, decl, parts[0])
	if root == nil {
		return ""
	}
	t := root.Type()
	for _, name := range parts[1 : len(parts)-1] {
		f := fieldByName(t, name)
		if f == nil {
			return ""
		}
		t = f.Type()
	}
	last := parts[len(parts)-1]
	if fieldByName(t, last) == nil {
		return ""
	}
	named := derefNamed(t)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + last
}

// findVar finds a variable named name defined anywhere in the function:
// receiver, parameter, or local.
func findVar(info *types.Info, decl *ast.FuncDecl, name string) *types.Var {
	var found *types.Var
	ast.Inspect(decl, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name {
			return true
		}
		if v, ok := info.Defs[id].(*types.Var); ok && !v.IsField() {
			found = v
		}
		return found == nil
	})
	return found
}

func fieldByName(t types.Type, name string) *types.Var {
	s := derefStruct(t)
	if s == nil {
		return nil
	}
	for i := 0; i < s.NumFields(); i++ {
		if f := s.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

func setToSorted(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// dedupEdges removes duplicate (From, To, Func) edges keeping the
// earliest position, and sorts for determinism.
func dedupEdges(res *Result) {
	type key struct{ from, to, fn string }
	best := make(map[key]Edge)
	var order []key
	for _, e := range res.Edges {
		k := key{e.From, e.To, e.Func}
		if prev, ok := best[k]; !ok || e.Pos < prev.Pos {
			if !ok {
				order = append(order, k)
			}
			best[k] = e
		}
	}
	res.Edges = res.Edges[:0]
	for _, k := range order {
		res.Edges = append(res.Edges, best[k])
	}
	sort.Slice(res.Edges, func(i, j int) bool {
		a, b := res.Edges[i], res.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Pos < b.Pos
	})
}

// ResolvePin expands a pin name as spelled in a directive to a full
// class: names containing a "/" are already package-qualified, anything
// else is relative to pkgPath.
func ResolvePin(pkgPath, name string) string {
	if strings.Contains(name, "/") {
		return name
	}
	return pkgPath + "." + name
}
