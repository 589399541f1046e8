package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RawConcCheck forbids host concurrency in simulator-facing code: `go`
// statements, channel types and operations, and select. Simulated code
// runs on sim.Thread cooperative threads scheduled by the event engine,
// which switches between them as coroutines; all synchronization must
// go through psync (barriers, locks) or the machine's messaging surface
// so that host goroutine scheduling can never leak into simulated
// results. A raw goroutine would race the deterministic engine and
// break run-to-run reproducibility. The sync and sync/atomic packages
// are fenced by closedscope, which lets no sim scope import them.
var RawConcCheck = &Check{
	Name:  "rawconc",
	Doc:   "forbid go statements, channels and select in simulator-facing code (use sim.Thread/psync)",
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
			}
			return true
		})
	}
}
