package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RawConcCheck forbids host concurrency primitives in simulator-facing
// code: `go` statements, channel types and operations, select, and the
// sync / sync-atomic packages. Simulated code runs on sim.Thread
// cooperative threads scheduled by the event engine, which switches
// between them as coroutines; all synchronization must go through psync
// (barriers, locks) or the machine's messaging surface so that host
// goroutine scheduling can never leak into simulated results. A raw
// goroutine or a lock would race the deterministic engine and break
// run-to-run reproducibility.
var RawConcCheck = &Check{
	Name:  "rawconc",
	Doc:   "forbid go statements, channels, select, and sync primitives in simulator-facing code (use sim.Thread/psync)",
	Scope: "sim packages",
	Applies: func(pkgPath string) bool {
		return inScope(pkgPath, simScopes)
	},
	Run: runRawConc,
}

func runRawConc(p *Pass) {
	const remedy = "; simulator-facing code must use sim.Thread/psync so host scheduling cannot leak into results"
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "go statement spawns a host goroutine"+remedy)
			case *ast.SelectStmt:
				p.Reportf(n.Pos(), "select waits on host channels"+remedy)
			case *ast.SendStmt:
				p.Reportf(n.Pos(), "channel send"+remedy)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					p.Reportf(n.Pos(), "channel receive"+remedy)
				}
			case *ast.ChanType:
				p.Reportf(n.Pos(), "channel type"+remedy)
			case *ast.RangeStmt:
				if tv, ok := p.Info.Types[n.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						p.Reportf(n.Pos(), "range over a channel"+remedy)
					}
				}
			case *ast.SelectorExpr:
				if isPkgSelector(p, n, "sync") || isPkgSelector(p, n, "sync/atomic") {
					p.Reportf(n.Pos(), "sync primitive %s.%s"+remedy, pkgName(p, n), n.Sel.Name)
					return true
				}
				// Method calls on sync/atomic-typed values (mu.Lock,
				// counter.Add) don't name the package at the call site, so
				// catch them through the receiver's declared type — else a
				// primitive obtained indirectly slips through.
				if sel, ok := p.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					if named := namedRecv(sel.Recv()); named != nil {
						if pkg := named.Obj().Pkg(); pkg != nil &&
							(pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
							p.Reportf(n.Pos(), "sync primitive method %s.%s"+remedy, named.Obj().Name(), n.Sel.Name)
						}
					}
				}
			}
			return true
		})
	}
}

// pkgName returns the selector's package qualifier text.
func pkgName(p *Pass, sel *ast.SelectorExpr) string {
	if id := firstIdent(sel.X); id != nil {
		return id.Name
	}
	return "sync"
}

// namedRecv unwraps a method receiver type to its named type, looking
// through a pointer.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
