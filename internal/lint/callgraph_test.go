package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// srcPkg is one in-memory fixture package for call-graph tests.
type srcPkg struct {
	path string
	src  string
}

// buildPkgs parses and type-checks the fixture packages in order, sharing
// one importer so cross-package function objects are canonical — the
// property the call graph relies on to merge edges across packages.
func buildPkgs(t *testing.T, fset *token.FileSet, srcs []srcPkg) []*Package {
	t.Helper()
	imp := &moduleImporter{
		source:  importer.ForCompiler(fset, "source", nil),
		checked: map[string]*types.Package{},
	}
	var pkgs []*Package
	for _, s := range srcs {
		f, err := parser.ParseFile(fset, s.path+"/fixture.go", s.src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := &Package{Path: s.path, Fset: fset, Files: []*ast.File{f}}
		if err := typeCheck(fset, pkg, imp); err != nil {
			t.Fatal(err)
		}
		imp.checked[s.path] = pkg.Pkg
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// nodeByName finds a call-graph node by its display name.
func nodeByName(t *testing.T, g *CallGraph, name string) *CGNode {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Name() == name {
			return n
		}
	}
	var names []string
	for _, n := range g.Nodes() {
		names = append(names, n.Name())
	}
	t.Fatalf("no node %q in graph; have: %s", name, strings.Join(names, ", "))
	return nil
}

// edgeTo reports whether from has an edge of the given kind to to.
func edgeTo(from, to *CGNode, kind EdgeKind) bool {
	for _, e := range from.Edges {
		if e.To == to && e.Kind == kind {
			return true
		}
	}
	return false
}

func TestCallGraphMethodsAndLiterals(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := buildPkgs(t, fset, []srcPkg{{path: "repro/internal/cgfix", src: `package cgfix

type Box struct{ n int }

func (b *Box) Bump() { b.n++ }

func (b Box) Get() int { return b.n }

func Drive(b *Box) {
	b.Bump()
	_ = b.Get()
	f := func() { b.Bump() }
	f()
	handoff(b.Bump)
}

func handoff(f func()) { f() }
`}})
	g := BuildCallGraph(pkgs)

	drive := nodeByName(t, g, "cgfix.Drive")
	bump := nodeByName(t, g, "cgfix.(*Box).Bump")
	get := nodeByName(t, g, "cgfix.(Box).Get")
	lit := nodeByName(t, g, "cgfix.Drive$1")

	if !edgeTo(drive, bump, EdgeCall) {
		t.Error("Drive has no call edge to (*Box).Bump")
	}
	if !edgeTo(drive, get, EdgeCall) {
		t.Error("Drive has no call edge to (Box).Get")
	}
	// The literal is its own node with a ref edge from its parent, and
	// its body's call resolves from the literal, not from Drive.
	if !edgeTo(drive, lit, EdgeRef) {
		t.Error("Drive has no ref edge to its literal")
	}
	if !edgeTo(lit, bump, EdgeCall) {
		t.Error("literal has no call edge to (*Box).Bump")
	}
	if lit.Parent != drive {
		t.Error("literal's Parent is not Drive")
	}
	// b.Bump taken as a method value (not called) is a ref edge.
	found := false
	for _, e := range drive.Edges {
		if e.To == bump && e.Kind == EdgeRef {
			found = true
		}
	}
	if !found {
		t.Error("method value b.Bump produced no ref edge from Drive")
	}
}

func TestCallGraphExternalNodes(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := buildPkgs(t, fset, []srcPkg{{path: "repro/internal/cgfix", src: `package cgfix

import "strings"

func Up(s string) string { return strings.ToUpper(s) }
`}})
	g := BuildCallGraph(pkgs)
	up := nodeByName(t, g, "cgfix.Up")
	ext := nodeByName(t, g, "strings.ToUpper")
	if !ext.External() {
		t.Error("strings.ToUpper is not marked external")
	}
	if !edgeTo(up, ext, EdgeCall) {
		t.Error("Up has no call edge to strings.ToUpper")
	}
}

func TestCallGraphCrossPackage(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := buildPkgs(t, fset, []srcPkg{
		{path: "repro/internal/cglow", src: `package cglow

func Helper() int { return 1 }
`},
		{path: "repro/internal/cghigh", src: `package cghigh

import "repro/internal/cglow"

func Caller() int { return cglow.Helper() }
`},
	})
	g := BuildCallGraph(pkgs)
	caller := nodeByName(t, g, "cghigh.Caller")
	helper := nodeByName(t, g, "cglow.Helper")
	if helper.External() {
		t.Fatal("cglow.Helper resolved as external; the shared importer did not canonicalize the object")
	}
	if helper.Decl == nil {
		t.Fatal("cglow.Helper's edge target is not the declaration node")
	}
	if !edgeTo(caller, helper, EdgeCall) {
		t.Error("Caller has no cross-package call edge to cglow.Helper")
	}
}

func TestCallGraphIfaceOverApproximation(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := buildPkgs(t, fset, []srcPkg{{path: "repro/internal/cgfix", src: `package cgfix

type Runner interface{ Run() }

type A struct{}

func (A) Run() {}

type B struct{}

func (*B) Run() {}

type C struct{}

func (C) Walk() {}

func Dispatch(r Runner) { r.Run() }
`}})
	g := BuildCallGraph(pkgs)
	disp := nodeByName(t, g, "cgfix.Dispatch")
	aRun := nodeByName(t, g, "cgfix.(A).Run")
	bRun := nodeByName(t, g, "cgfix.(*B).Run")
	cWalk := nodeByName(t, g, "cgfix.(C).Walk")
	if !edgeTo(disp, aRun, EdgeIface) {
		t.Error("interface call has no iface edge to the value-receiver implementation A")
	}
	if !edgeTo(disp, bRun, EdgeIface) {
		t.Error("interface call has no iface edge to the pointer-receiver implementation *B")
	}
	for _, e := range disp.Edges {
		if e.To == cWalk {
			t.Error("interface call gained an edge to a non-implementing type's method")
		}
	}
}

func TestReachAndChain(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := buildPkgs(t, fset, []srcPkg{{path: "repro/internal/cgfix", src: `package cgfix

func a() { b() }

func b() { c() }

func c() {}

func direct() { c() }
`}})
	g := BuildCallGraph(pkgs)
	na := nodeByName(t, g, "cgfix.a")
	nb := nodeByName(t, g, "cgfix.b")
	nc := nodeByName(t, g, "cgfix.c")

	reach := g.Reach(func(n *CGNode) bool { return n == nc }, nil)
	if reach[na] == nil || reach[na].Dist != 2 {
		t.Fatalf("a's reach = %+v, want dist 2", reach[na])
	}
	if got := Chain(na, reach); got != "cgfix.a -> cgfix.b -> cgfix.c" {
		t.Errorf("Chain(a) = %q", got)
	}

	// A barrier on b cuts a's path and removes b itself.
	cut := g.Reach(func(n *CGNode) bool { return n == nc },
		func(n *CGNode) bool { return n == nb })
	if cut[na] != nil {
		t.Error("barrier on b did not cut a's reachability")
	}
	if cut[nb] != nil {
		t.Error("barrier node b still acquired reachability")
	}
	if cut[nodeByName(t, g, "cgfix.direct")] == nil {
		t.Error("direct caller of c lost reachability to an unrelated barrier")
	}
}
