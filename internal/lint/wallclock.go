package lint

import (
	"go/ast"
	"go/types"
)

// WallclockCheck forbids observing host wall-clock time in
// simulator-facing packages. A run's result must be a pure function of
// its RunConfig; the only time a simulation may observe is the simulated
// cycle count (sim.Engine.Now and its wrappers). A stray time.Now in a
// protocol handler silently breaks bit-identical reproduction of the
// paper's figures and aliases the sweep memo cache.
var WallclockCheck = &Check{
	Name:  "wallclock",
	Doc:   "forbid time.Now/Since/Sleep etc. in simulator-facing packages; only simulated cycles may be observed",
	Scope: "sim packages",
	Applies: func(pkgPath string) bool {
		return inScope(pkgPath, simScopes)
	},
	Run: runWallclock,
}

// wallclockForbidden lists the time package's host-clock entry points.
// Pure data types (time.Duration arithmetic, date formatting of
// constants) are not in the list: the hazard is observing the clock,
// not naming the types.
var wallclockForbidden = map[string]string{
	"Now":       "observes the host clock",
	"Since":     "observes the host clock",
	"Until":     "observes the host clock",
	"Sleep":     "blocks on host time",
	"After":     "blocks on host time",
	"Tick":      "blocks on host time",
	"NewTimer":  "schedules on host time",
	"NewTicker": "schedules on host time",
	"AfterFunc": "schedules on host time",
}

func runWallclock(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !isPkgSelector(p, sel, "time") {
				return true
			}
			if why, bad := wallclockForbidden[sel.Sel.Name]; bad {
				p.Reportf(sel.Pos(), "time.%s %s; simulator-facing code may only observe simulated cycles (sim.Engine.Now)", sel.Sel.Name, why)
			}
			return true
		})
	}
}

// isPkgSelector reports whether sel is a qualified identifier pkg.X
// where pkg is an import of the package with the given path.
func isPkgSelector(p *Pass, sel *ast.SelectorExpr, path string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}
