package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strconv"
)

// ClosedScopeCheck keeps the sim scopes closed, so that a simulation
// can reach no host facility and the syntactic unseededrand and rawconc
// checks see every module function it can run. It enforces two rules:
//
//  1. A sim-scope package imports only sim-scope packages and the
//     standard packages of simStdlib, and uses none of fmt's
//     fmtStdStreams. A helper outside the scopes is never checked, and
//     every other standard package (time, sync, os, runtime, ...) reads
//     or depends on the host, so sim code may not import one.
//  2. A package-level type declared outside the sim scopes implements no
//     non-empty interface declared in a sim-scope package. Sim code
//     calling through such an interface would run the host type's
//     methods. The interfaces come from every loaded sim-scope package,
//     not only the imported ones: a type can satisfy mesh.FaultInjector
//     while importing only internal/sim.
//
// Values that host code hands into a simulation are out of reach of
// both rules: func values (the bodies passed to machine.Run, am
// handlers) and host types behind a standard-library interface such as
// error. DESIGN.md §10 states that limit.
var ClosedScopeCheck = &Check{
	Name:  "closedscope",
	Doc:   "sim packages import only sim packages and an allow-list of pure standard packages; no type outside them implements a sim-package interface",
	Scope: "every package (imports of sim packages, types of the others)",
	Run:   runClosedScope,
}

// simStdlib is the standard library a sim scope may import: exactly the
// packages the sim scopes use, for computation, formatting and
// in-memory readers and writers. None reads the host clock, environment
// or scheduler, or blocks on another goroutine. Only fmt reaches the
// process's standard streams, through fmtStdStreams, which are reported
// at each use.
var simStdlib = []string{"bufio", "cmp", "fmt", "io", "iter", "math", "math/bits", "slices", "sort", "strconv", "strings"}

// fmtStdStreams are fmt's functions that write os.Stdout or read
// os.Stdin. Sim code formats into the writers and strings it is given.
var fmtStdStreams = []string{"Print", "Printf", "Println", "Scan", "Scanf", "Scanln"}

// randScopes may also import math/rand; unseededrand checks that every
// draw comes from a generator seeded by the run configuration.
var randScopes = []string{"internal/workload"}

func runClosedScope(p *Pass) {
	if inScope(p.PkgPath, simScopes) {
		checkSimImports(p)
		checkStdStreams(p)
	} else {
		checkHostTypes(p)
	}
}

// checkSimImports reports each import that is neither a sim scope nor
// allowed from the standard library.
func checkSimImports(p *Pass) {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || inScope(path, simScopes) || slices.Contains(simStdlib, path) ||
				path == "math/rand" && inScope(p.PkgPath, randScopes) {
				continue
			}
			p.Reportf(imp.Pos(), "sim package imports %s, which is neither a sim scope nor an allowed standard package; a simulation may reach only code the checks read, and no host clock, environment or scheduler", path)
		}
	}
}

// checkStdStreams reports each use of fmtStdStreams, called or not.
func checkStdStreams(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && isPkgSelector(p, sel, "fmt") && slices.Contains(fmtStdStreams, sel.Sel.Name) {
				p.Reportf(sel.Pos(), "sim package uses fmt.%s, which reaches the process's standard streams; a simulation writes only to the writers it is given and reads no host input", sel.Sel.Name)
			}
			return true
		})
	}
}

// checkHostTypes reports each package-level type of a host package that
// implements, by value or by pointer, a sim-scope interface.
func checkHostTypes(p *Pass) {
	ifaces := simInterfaces(p.Loaded)
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || obj.IsAlias() || types.IsInterface(obj.Type()) {
			continue
		}
		for _, in := range ifaces {
			iface := in.Type().Underlying().(*types.Interface)
			if types.Implements(obj.Type(), iface) || types.Implements(types.NewPointer(obj.Type()), iface) {
				p.Reportf(obj.Pos(), "%s implements %s.%s, an interface of the sim scopes; a simulation calling it would run host code that no check sees, so declare the type in a sim scope", obj.Name(), in.Pkg().Name(), in.Name())
				break
			}
		}
	}
}

// simInterfaces returns the non-empty interfaces declared at package
// level in the loaded sim-scope packages, in load and then name order.
func simInterfaces(pkgs []*Package) []*types.TypeName {
	var out []*types.TypeName
	for _, pkg := range pkgs {
		if !inScope(pkg.Path, simScopes) {
			continue
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				out = append(out, tn)
			}
		}
	}
	return out
}
