// Package poolescape checks the lifecycle of pooled values: a value
// obtained from sync.Pool.Get (or a //mnnfast:pool-get wrapper such as
// tensor.GetVector) must be returned with a matching Put in the same
// function, must not escape through return values, struct fields, or
// package variables, and must not be used after it was Put.
//
// The analysis is deliberately syntactic and local: it tracks Get
// results bound to plain local variables and requires at least one Put
// (or defer Put) in the same function scope. Functions annotated
// //mnnfast:pool-get or //mnnfast:pool-put are the pool's own accessor
// wrappers — their bodies necessarily return or store pooled values and
// are skipped. Hand-off designs the analysis cannot follow (a pooled
// wrapper traveling through a channel and recycled by the consumer) are
// out of scope for the variable-tracking rules by construction: only
// plain `v := pool.Get()` bindings are tracked, and deliberate
// exceptions carry a `//mnnfast:allow poolescape <reason>` comment.
package poolescape

import (
	"go/ast"
	"go/types"

	"mnnfast/internal/lint/analysis"
	"mnnfast/internal/lint/directives"
	"mnnfast/internal/lint/lockscan"
	"mnnfast/internal/lint/walk"
)

// Analyzer is the poolescape pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolescape",
	Doc:  "pooled values must be Put on the paths this function owns, must not escape via returns/fields/globals, and must not be used after Put",
	Run:  run,
}

// Known cross-package pool accessors, kept as a fallback for runs
// without facts (fixture tests, stale caches). With facts loaded,
// imported //mnnfast:pool-get / //mnnfast:pool-put wrappers are
// recognized through their exported facts and need no entry here.
var (
	knownGet = map[string]bool{
		"mnnfast/internal/tensor.GetVector": true,
		"mnnfast/internal/tensor.GetMatrix": true,
	}
	knownPut = map[string]bool{
		"mnnfast/internal/tensor.PutVector": true,
		"mnnfast/internal/tensor.PutMatrix": true,
	}
)

func run(pass *analysis.Pass) (any, error) {
	di := directives.Collect(pass.Files, pass.TypesInfo)
	for _, fi := range di.Funcs() {
		if fi.Decl.Body == nil || fi.PoolGet || fi.PoolPut {
			continue
		}
		for _, sc := range walk.Scopes(fi.Decl) {
			checkScope(pass, di, sc)
		}
	}
	return nil, nil
}

// callKind classifies a call as a pool Get, a pool Put, or neither.
func callKind(pass *analysis.Pass, di *directives.Info, call *ast.CallExpr) (get, put bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return false, false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false, false
	}
	switch fn.FullName() {
	case "(*sync.Pool).Get":
		return true, false
	case "(*sync.Pool).Put":
		return false, true
	}
	full := ""
	if fn.Pkg() != nil {
		full = fn.Pkg().Path() + "." + fn.Name()
	}
	if knownGet[full] {
		return true, false
	}
	if knownPut[full] {
		return false, true
	}
	if fi := di.ByObj(fn); fi != nil {
		return fi.PoolGet, fi.PoolPut
	}
	if fn.Pkg() != nil {
		if ff := pass.Facts.FuncFact(fn.Pkg().Path(), lockscan.ObjSymbol(fn)); ff != nil {
			return ff.PoolGet, ff.PoolPut
		}
	}
	return false, false
}

// getCall unwraps an expression that yields a pooled value: either a
// Get call directly or a Get call behind a type assertion
// (pool.Get().(*T)).
func getCall(pass *analysis.Pass, di *directives.Info, e ast.Expr) *ast.CallExpr {
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if get, _ := callKind(pass, di, call); get {
		return call
	}
	return nil
}

// tracked is one pooled value bound to a local variable in a scope.
type tracked struct {
	obj types.Object
	get *ast.CallExpr
}

func checkScope(pass *analysis.Pass, di *directives.Info, sc walk.Scope) {
	info := pass.TypesInfo
	var vars []tracked

	// Pass 1: find Get results, flag ones stored straight into escaping
	// locations, track ones bound to plain locals.
	walk.InScope(sc.Body, func(n ast.Node, stack []ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call := getCall(pass, di, as.Rhs[0])
		if call == nil {
			return true
		}
		switch lhs := as.Lhs[0].(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				return true
			}
			obj := info.Defs[lhs]
			if obj == nil {
				obj = info.Uses[lhs]
			}
			if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != pass.Pkg.Scope() {
				vars = append(vars, tracked{obj: obj, get: call})
			} else if ok {
				pass.Reportf(as.Pos(), "pooled value stored directly into %s; pooled scratch must stay request-local", lhs.Name)
			}
		case *ast.SelectorExpr:
			pass.Reportf(as.Pos(), "pooled value stored directly into a struct field; it outlives the request and can never be safely Put")
		}
		return true
	})

	for _, t := range vars {
		checkTracked(pass, di, sc, t)
	}
}

func checkTracked(pass *analysis.Pass, di *directives.Info, sc walk.Scope, t tracked) {
	info := pass.TypesInfo
	var (
		putCount int
		escaped  bool
	)

	walk.InScope(sc.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, put := callKind(pass, di, n); put {
				for _, arg := range n.Args {
					if walk.UsesObj(arg, info, t.obj) {
						putCount++
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if escapingUse(info, res, t.obj) {
					escaped = true
					pass.Reportf(n.Pos(), "pooled %s escapes via return; the caller has no way to Put it back", t.obj.Name())
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if escapingUse(info, rhs, t.obj) && escapingTarget(pass, n.Lhs[i]) &&
						!selectorRootIs(info, n.Lhs[i], t.obj) {
						escaped = true
						pass.Reportf(n.Pos(), "pooled %s escapes into a struct field or package variable; pooled scratch must stay request-local", t.obj.Name())
					}
				}
				return true
			}
			usesRhs := false
			for _, rhs := range n.Rhs {
				if escapingUse(info, rhs, t.obj) {
					usesRhs = true
				}
			}
			if !usesRhs {
				return true
			}
			for _, lhs := range n.Lhs {
				if escapingTarget(pass, lhs) && !selectorRootIs(info, lhs, t.obj) {
					escaped = true
					pass.Reportf(n.Pos(), "pooled %s escapes into a struct field or package variable; pooled scratch must stay request-local", t.obj.Name())
				}
			}
		}
		return true
	})

	if putCount == 0 && !escaped {
		pass.Reportf(t.get.Pos(), "pooled %s is never returned to its pool in this function; add a Put (usually deferred) on every return path", t.obj.Name())
	}

	checkUseAfterPut(pass, di, sc, t)
}

// escapingUse reports whether expression e carries the pooled value
// itself outward: the bare variable, an alias of it (slice, address),
// or a composite literal embedding it. Computations over the value
// (len(*b), b[0], arithmetic) yield fresh data and are not escapes.
func escapingUse(info *types.Info, e ast.Expr, obj types.Object) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return escapingUse(info, e.X, obj)
	case *ast.Ident:
		return info.Uses[e] == obj
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return walk.UsesObj(e, info, obj)
		}
	case *ast.CompositeLit:
		return walk.UsesObj(e, info, obj)
	case *ast.SliceExpr:
		return escapingUse(info, e.X, obj)
	}
	return false
}

// selectorRootIs reports whether lhs is a selector chain rooted at
// obj itself (st.ins.Ev = ... with obj = st). Storing a pointer into
// a field of the pooled value it points back to keeps the value
// request-local — it leaves the request only if the value itself
// does, which the other rules already catch.
func selectorRootIs(info *types.Info, lhs ast.Expr, obj types.Object) bool {
	for {
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.Ident:
			return info.Uses[e] == obj
		default:
			return false
		}
	}
}

// escapingTarget reports whether assigning to lhs publishes a value
// beyond the current call: a struct field, or a package-level variable.
func escapingTarget(pass *analysis.Pass, lhs ast.Expr) bool {
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		if v, ok := pass.TypesInfo.Uses[lhs.Sel].(*types.Var); ok {
			return v.IsField()
		}
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[lhs]
		if obj == nil {
			obj = pass.TypesInfo.Defs[lhs]
		}
		if v, ok := obj.(*types.Var); ok {
			return v.Parent() == pass.Pkg.Scope()
		}
	}
	return false
}

// checkUseAfterPut flags uses of a pooled variable in statements that
// directly follow (in the same block) a non-deferred statement-level
// Put of it, with no return in between. Puts nested in branches don't
// poison the block: the straight-line Get…use…Put idiom is what this
// rule protects.
func checkUseAfterPut(pass *analysis.Pass, di *directives.Info, sc walk.Scope, t tracked) {
	info := pass.TypesInfo
	walk.InScope(sc.Body, func(n ast.Node, stack []ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		putAt := -1
		for i, stmt := range block.List {
			if putAt >= 0 {
				if walk.UsesObj(stmt, info, t.obj) {
					pass.Reportf(stmt.Pos(), "use of pooled %s after it was Put on line %d; the pool may already have handed it to another goroutine", t.obj.Name(), pass.Fset.Position(block.List[putAt].Pos()).Line)
					break
				}
				if _, isRet := stmt.(*ast.ReturnStmt); isRet {
					break
				}
				continue
			}
			es, ok := stmt.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if _, put := callKind(pass, di, call); !put {
				continue
			}
			for _, arg := range call.Args {
				if walk.UsesObj(arg, info, t.obj) {
					putAt = i
				}
			}
		}
		return true
	})
}
