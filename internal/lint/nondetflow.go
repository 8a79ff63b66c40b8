package lint

import (
	"go/ast"
	"go/types"
)

// NondetFlow is the cross-package determinism taint analysis. walltime and
// maporder see only the scoped package's own syntax: a helper in an
// out-of-scope package that returns a time.Now()-derived seed passes both
// clean when called from simulator code. NondetFlow closes that blind spot
// interprocedurally: every module-local package is analyzed (facts-only
// outside the sink scope) to compute which of its functions return values
// derived from the wall clock, process-global randomness, or map-iteration
// order; those facts propagate along the import graph, and a call to a
// tainted function from a sink package — simulator core, report
// serialization, or the canonical cache-key encoding — is a finding.
//
// The taint model is deliberately conservative and return-focused:
//
//   - a function is tainted when a returned expression (transitively through
//     local assignments, flow-insensitively) contains a wall-clock or
//     global-rand call, a call to another tainted function, or an
//     order-carrying aggregation (append / string concatenation) built
//     inside a map range;
//   - slices that are sorted (any sort.* / slices.* call in the function)
//     shed map-order taint, matching maporder's collect-then-sort idiom;
//   - a `//ldslint:walltime <reason>` annotation at the source call means
//     the author has certified host time cannot reach results, so the
//     function is not tainted; `//ldslint:ordered` on the range likewise;
//   - flows through struct fields, package variables, func values, and
//     interface method calls are not tracked (documented in LINTING.md).
var NondetFlow = &Analyzer{
	Name:      "nondetflow",
	Doc:       "cross-package taint: flags calls to functions whose results derive from wall clock, global randomness, or map order; annotate //ldslint:nondetflow <reason> if the value provably cannot reach results",
	Scope:     suffixScope(nondetflowPackages...),
	UsesFacts: true,
	Run:       runNondetFlow,
}

// taintFact is the per-function fact: why the function's results are
// nondeterministic. A package's facts are a map[string]taintFact keyed by
// funcTaintKey.
type taintFact struct {
	// Kind is "walltime", "rand", or "maporder".
	Kind string
	// Via is the human-readable source chain, e.g. "util.ClockSeed ← time.Now".
	Via string
}

// kindPhrase renders a taint kind for diagnostics.
func kindPhrase(kind string) string {
	switch kind {
	case "walltime":
		return "the wall clock"
	case "rand":
		return "process-global randomness"
	case "maporder":
		return "map iteration order"
	}
	return kind
}

// funcTaintKey names a function in a package's facts: "F" for package-level
// functions, "T.M" for methods (pointer receivers stripped). Interface
// methods and other untrackable shapes return "".
func funcTaintKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := sig.Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return ""
	}
	return named.Obj().Name() + "." + fn.Name()
}

type nondetFlow struct {
	pass *Pass
	// local maps this package's functions to their taint, grown to fixpoint.
	local map[*types.Func]taintFact
}

func runNondetFlow(pass *Pass) error {
	nf := &nondetFlow{pass: pass, local: map[*types.Func]taintFact{}}

	type fnDecl struct {
		fn   *types.Func
		decl *ast.FuncDecl
	}
	var decls []fnDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls = append(decls, fnDecl{fn, fd})
			}
		}
	}

	// Fixpoint over the package's functions: taint is monotone, so iterate
	// until a full sweep adds nothing (handles intra-package call chains in
	// any declaration order, including recursion).
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, done := nf.local[d.fn]; done {
				continue
			}
			if info, tainted := nf.analyzeFunc(d.decl); tainted {
				nf.local[d.fn] = info
				changed = true
			}
		}
	}

	if len(nf.local) > 0 {
		out := map[string]taintFact{}
		for fn, info := range nf.local {
			if key := funcTaintKey(fn); key != "" {
				out[key] = info
			}
		}
		if len(out) > 0 {
			pass.SetFacts(out)
		}
	}

	if pass.FactsOnly {
		return nil
	}

	// Reporting phase: a call in a sink package to an *imported* tainted
	// function is the cross-package leak the intra-package analyzers cannot
	// see. Same-package sources are walltime/maporder's responsibility.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
				return true
			}
			info, tainted := nf.importedTaint(fn)
			if !tainted || pass.Suppressed(call, "nondetflow") {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s.%s returns a value derived from %s (via %s); nondeterminism must not reach simulated results, reports, or cache keys (annotate //ldslint:nondetflow <reason> if it provably cannot)",
				fn.Pkg().Name(), funcTaintKey(fn), kindPhrase(info.Kind), info.Via)
			return true
		})
	}
	return nil
}

// importedTaint looks up the fact for a function defined in a dependency.
func (nf *nondetFlow) importedTaint(fn *types.Func) (taintFact, bool) {
	key := funcTaintKey(fn)
	if key == "" {
		return taintFact{}, false
	}
	facts, _ := nf.pass.ImportedFacts(NormalizePkgPath(fn.Pkg().Path())).(map[string]taintFact)
	info, ok := facts[key]
	return info, ok
}

// calleeFunc resolves the *types.Func a call statically invokes, or nil for
// builtins, conversions, func values, and interface methods.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.TypesInfo.ObjectOf(id).(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			return nil // dynamic dispatch: target unknown
		}
	}
	return fn
}

// analyzeFunc decides whether fd's results are taint-derived. The walk is
// flow-insensitive: local-variable taint is grown to a fixpoint over the
// body's assignments, then every return expression is tested. Function
// literals are separate scopes and are skipped entirely (their returns are
// not fd's returns; taint through captured func values is not tracked).
func (nf *nondetFlow) analyzeFunc(fd *ast.FuncDecl) (taintFact, bool) {
	pass := nf.pass
	sorted := sortedObjects(pass, fd.Body)
	tainted := map[types.Object]taintFact{}
	// orderCarriers are map-range key/value variables of non-annotated
	// ranges: aggregating them in order (append, string concat) taints the
	// aggregate.
	orderCarriers := map[types.Object]bool{}
	inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		if pass.HasAnnotation(rs, "ordered") {
			return
		}
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					orderCarriers[obj] = true
				}
			}
		}
	})

	exprTaint := func(e ast.Expr) (taintFact, bool) {
		var info taintFact
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if i, ok := nf.callTaint(n); ok {
					info, found = i, true
					return false
				}
			case *ast.Ident:
				if obj := pass.TypesInfo.ObjectOf(n); obj != nil {
					if i, ok := tainted[obj]; ok {
						info, found = i, true
						return false
					}
				}
			}
			return true
		})
		return info, found
	}

	// mentionsCarrier reports whether e uses a map-range key/value variable.
	mentionsCarrier := func(e ast.Expr) bool {
		hit := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && orderCarriers[pass.TypesInfo.ObjectOf(id)] {
				hit = true
			}
			return !hit
		})
		return hit
	}

	taintObj := func(e ast.Expr, info taintFact) bool {
		id, ok := rootIdent(e)
		if !ok {
			return false
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return false
		}
		if info.Kind == "maporder" && sorted[obj] {
			return false // collect-then-sort: the sort erases iteration order
		}
		if _, done := tainted[obj]; done {
			return false
		}
		tainted[obj] = info
		return true
	}

	for changed := true; changed; {
		changed = false
		inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return
			}
			var info taintFact
			rhsTainted := false
			for _, r := range as.Rhs {
				if i, ok := exprTaint(r); ok {
					info, rhsTainted = i, true
					break
				}
			}
			if !rhsTainted {
				// Order-carrying aggregation: append or string concatenation
				// of a map-range key/value is tainted by iteration order.
				for _, r := range as.Rhs {
					call, isCall := r.(*ast.CallExpr)
					isAppend := isCall && isBuiltin(pass, call.Fun, "append")
					isConcat := false
					if !isAppend {
						if bt := pass.TypesInfo.TypeOf(as.Lhs[0]); bt != nil {
							if b, ok := bt.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
								isConcat = true
							}
						}
					}
					if (isAppend || isConcat) && mentionsCarrier(r) {
						info = taintFact{Kind: "maporder", Via: "map iteration in " + fd.Name.Name}
						rhsTainted = true
						break
					}
				}
			}
			if !rhsTainted {
				return
			}
			for _, l := range as.Lhs {
				if taintObj(l, info) {
					changed = true
				}
			}
		})
	}

	var result taintFact
	found := false
	inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
		if found {
			return
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, r := range ret.Results {
			if info, ok := exprTaint(r); ok {
				result, found = info, true
				return
			}
		}
	})
	return result, found
}

// callTaint reports whether a call expression yields a tainted value: a
// direct wall-clock / global-rand source, or a call to a function already
// known tainted (locally or via a dependency's facts).
func (nf *nondetFlow) callTaint(call *ast.CallExpr) (taintFact, bool) {
	pass := nf.pass
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch packageOf(pass, sel) {
		case "time":
			if wallClockFuncs[sel.Sel.Name] && !pass.HasAnnotation(call, "walltime") {
				return taintFact{Kind: "walltime", Via: "time." + sel.Sel.Name}, true
			}
		case "math/rand", "math/rand/v2":
			if !globalRandAllowed[sel.Sel.Name] && !pass.HasAnnotation(call, "walltime") {
				return taintFact{Kind: "rand", Via: "rand." + sel.Sel.Name}, true
			}
		}
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return taintFact{}, false
	}
	if fn.Pkg() == pass.Pkg {
		if info, ok := nf.local[fn]; ok {
			return derivedTaint(fn, info), true
		}
		return taintFact{}, false
	}
	if info, ok := nf.importedTaint(fn); ok {
		return derivedTaint(fn, info), true
	}
	return taintFact{}, false
}

// derivedTaint extends a taint chain through a call to fn, keeping the Via
// string bounded.
func derivedTaint(fn *types.Func, info taintFact) taintFact {
	via := fn.Pkg().Name() + "." + funcTaintKey(fn) + " ← " + info.Via
	if len(via) > 160 {
		via = via[:157] + "…"
	}
	return taintFact{Kind: info.Kind, Via: via}
}

// sortedObjects collects every object passed as an argument to a sort.* or
// slices.* call anywhere in body: such slices shed map-order taint.
func sortedObjects(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if p := packageOf(pass, sel); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := rootIdent(arg); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// inspectSkippingFuncLits visits every node of the body except function
// literals' subtrees.
func inspectSkippingFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
