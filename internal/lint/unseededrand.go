package lint

import (
	"go/ast"
)

// UnseededRandCheck forbids the global math/rand state and unseeded
// generators in simulator-facing packages. Workload generation and
// fault injection are part of the sweep memo key through their seeds;
// randomness that does not flow from an explicit seed in the RunConfig
// makes two runs of the same configuration diverge and poisons the
// memoization cache. The accepted idiom is a local generator seeded
// from configuration: rand.New(rand.NewSource(seed)). closedscope lets
// only internal/workload import math/rand, and no sim scope import
// math/rand/v2.
var UnseededRandCheck = &Check{
	Name:  "unseededrand",
	Doc:   "forbid global math/rand functions and unseeded rand.New in simulator-facing packages",
	Scope: "sim packages",
	Applies: func(pkgPath string) bool {
		return inScope(pkgPath, simScopes)
	},
	Run: runUnseededRand,
}

// randGlobals are the math/rand package-level functions that draw from
// the implicit global generator.
var randGlobals = map[string]bool{
	"Int": true, "Intn": true,
	"Int31": true, "Int31n": true, "Int63": true, "Int63n": true,
	"Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func runUnseededRand(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !isPkgSelector(p, sel, "math/rand") {
				return true
			}
			name := sel.Sel.Name
			if randGlobals[name] {
				p.Reportf(sel.Pos(), "rand.%s draws from the global generator; use rand.New(rand.NewSource(seed)) with a seed from the run configuration", name)
				return true
			}
			if name != "New" {
				return true
			}
			// rand.New must be fed a freshly seeded source right there:
			// rand.New(rand.NewSource(seed)). Anything else (a stored
			// Source, a time-seeded source) hides the seed from review.
			call := enclosingCall(f, sel)
			if call == nil || len(call.Args) != 1 || !isSeededSource(p, call.Args[0]) {
				p.Reportf(sel.Pos(), "rand.New must be called as rand.New(rand.NewSource(seed)) with a configuration-derived seed")
			}
			return true
		})
	}
}

// enclosingCall returns the CallExpr whose Fun is exactly sel, if any.
func enclosingCall(f *ast.File, sel *ast.SelectorExpr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == sel {
			found = call
			return false
		}
		return true
	})
	return found
}

// isSeededSource reports whether expr is rand.NewSource(...), an
// explicitly seeded source.
func isSeededSource(p *Pass, expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return isPkgSelector(p, sel, "math/rand") && sel.Sel.Name == "NewSource"
}
