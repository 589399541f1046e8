package lint

import (
	"go/types"
	"strconv"
)

// ClosedScopeCheck keeps the sim scopes closed, so that the syntactic
// wallclock, unseededrand and rawconc checks see every module function a
// simulation can run. It enforces two rules:
//
//  1. A sim-scope package imports only sim-scope and standard-library
//     packages. A helper outside the scopes is never checked for host
//     time, global rand or host concurrency, so sim code may not call
//     one.
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
	Doc:   "sim packages import only sim packages and the standard library; no type outside them implements a sim-package interface",
	Scope: "every package (imports of sim packages, types of the others)",
	Run:   runClosedScope,
}

func runClosedScope(p *Pass) {
	if inScope(p.PkgPath, simScopes) {
		checkSimImports(p)
	} else {
		checkHostTypes(p)
	}
}

// checkSimImports reports each import of a loaded package outside the
// sim scopes. Load type-checks every module package the patterns import,
// so an import that was not loaded is a standard-library one.
func checkSimImports(p *Pass) {
	loaded := make(map[string]bool, len(p.Loaded))
	for _, pkg := range p.Loaded {
		loaded[pkg.Path] = true
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil && loaded[path] && !inScope(path, simScopes) {
				p.Reportf(imp.Pos(), "sim package imports %s, which is outside the sim scopes; code a simulation calls must sit in a sim scope, where wallclock, unseededrand and rawconc check it", path)
			}
		}
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
