package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrderCheck flags `for range` over a map whose body does
// order-sensitive work: appending to slices, accumulating
// floating-point values, calling into the simulation, or writing
// output. Go randomizes map iteration order per process, so any
// of these makes two runs of the same configuration diverge — the exact
// failure mode the parallel sweep runner's bit-identical guarantee and
// the memoization cache cannot tolerate.
//
// The canonical safe idiom is recognized and stays silent: collect the
// keys into a slice and sort before doing the real work —
//
//	keys := make([]K, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Slice(keys, ...)          // or sort.Ints, slices.Sort, sortI32, ...
//	for _, k := range keys { ... }
//
// Order-insensitive bodies — integer counters, disjoint per-key writes —
// are not flagged.
var MapOrderCheck = &Check{
	Name:  "maporder",
	Doc:   "flag order-sensitive work (appends, float accumulation, calls into sim packages, output) inside map iteration",
	Scope: "every package",
	Run:   runMapOrder,
}

// outputNames are method names that emit output; emitting in map order
// makes generated figure data nondeterministic.
var outputNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
}

func runMapOrder(p *Pass) {
	for _, f := range p.Files {
		safe := safeCollectRanges(p, f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapRange(p, rs) || safe[rs] {
				return true
			}
			for _, h := range findHazards(p, rs.Body, safe) {
				p.Reportf(h.pos, "%s while iterating over a map (iteration order is randomized); collect and sort the keys first, or make the work order-insensitive", h.what)
			}
			return true
		})
	}
}

// isMapRange reports whether rs ranges over a map.
func isMapRange(p *Pass, rs *ast.RangeStmt) bool {
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// safeCollectRanges finds every map-range of the key-collection idiom:
// a body consisting solely of `s = append(s, key)` with the very next
// statement sorting s. These are the deterministic-by-construction
// loops the check must never flag.
func safeCollectRanges(p *Pass, f *ast.File) map[*ast.RangeStmt]bool {
	safe := make(map[*ast.RangeStmt]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, stmt := range list {
			rs, ok := stmt.(*ast.RangeStmt)
			if !ok || i+1 >= len(list) {
				continue
			}
			if target, ok := collectTarget(rs); ok && isSortOf(p, list[i+1], target) {
				safe[rs] = true
			}
		}
		return true
	})
	return safe
}

// collectTarget matches a range body of exactly `T = append(T, key)` —
// optionally wrapped in a single else-less if (filtered collection) —
// and returns T's source form. The appended value may be a conversion
// of the key.
func collectTarget(rs *ast.RangeStmt) (string, bool) {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || len(rs.Body.List) != 1 {
		return "", false
	}
	stmt := rs.Body.List[0]
	if ifs, ok := stmt.(*ast.IfStmt); ok && ifs.Else == nil && len(ifs.Body.List) == 1 {
		stmt = ifs.Body.List[0]
	}
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return "", false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltinAppend(call) || len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return "", false
	}
	target := types.ExprString(as.Lhs[0])
	if types.ExprString(call.Args[0]) != target {
		return "", false
	}
	appended := call.Args[1]
	if conv, ok := appended.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		appended = conv.Args[0]
	}
	if id, ok := appended.(*ast.Ident); !ok || id.Name != key.Name {
		return "", false
	}
	return target, true
}

// isSortOf reports whether stmt is a sort call whose first argument is
// the collected slice: sort.*/slices.* or any local helper whose name
// starts with "sort" (sortI32, sortInt32, ...).
func isSortOf(p *Pass, stmt ast.Stmt, target string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) < 1 || types.ExprString(call.Args[0]) != target {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if isPkgSelector(p, fun, "sort") || isPkgSelector(p, fun, "slices") {
			return true
		}
		return strings.HasPrefix(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.HasPrefix(strings.ToLower(fun.Name), "sort")
	}
	return false
}

func isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// hazard is one order-sensitive operation inside a map-range body.
type hazard struct {
	pos  token.Pos
	what string
}

// findHazards scans a map-range body for every order-sensitive
// operation, skipping nested safe key-collection loops.
func findHazards(p *Pass, body *ast.BlockStmt, safe map[*ast.RangeStmt]bool) []hazard {
	var out []hazard
	add := func(pos token.Pos, what string) { out = append(out, hazard{pos, what}) }
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if safe[n] {
				return false // deterministic by construction
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if tv, ok := p.Info.Types[n.Lhs[0]]; ok && isFloat(tv.Type) {
					add(n.Pos(), "accumulates floating-point values")
				}
			}
		case *ast.CallExpr:
			if isBuiltinAppend(n) {
				add(n.Pos(), "appends to a slice")
				return true
			}
			if fn := callee(p, n); fn != nil && fn.Pkg() != nil && inScope(fn.Pkg().Path(), simScopes) {
				// Sim code may schedule events, send messages or draw
				// seeded randomness: called in map order, it perturbs the
				// sequence numbers that break the event queue's same-time
				// ties, and with them every downstream measurement.
				add(n.Pos(), "calls into the simulation")
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				// Qualified identifiers (pkg.Func) only count for fmt
				// output; method calls count for output by name.
				if _, isPkg := p.Info.Uses[firstIdent(sel.X)].(*types.PkgName); isPkg {
					if isPkgSelector(p, sel, "fmt") && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
						add(n.Pos(), "writes output")
					}
				} else if outputNames[name] {
					add(n.Pos(), "writes output")
				}
			}
		}
		return true
	})
	return out
}

// callee returns the function or method that call names, or nil for a
// call through a func value, a conversion or a builtin.
func callee(p *Pass, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	switch f := fun.(type) {
	case *ast.IndexExpr: // an instantiation f[T]
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// firstIdent returns expr as *ast.Ident, or nil.
func firstIdent(expr ast.Expr) *ast.Ident {
	id, _ := expr.(*ast.Ident)
	return id
}
