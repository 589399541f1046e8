package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The fixture tests share one FileSet and one importer, which reads the
// export data go list reports for the standard packages the fixtures
// import.
var (
	fixtureFset = token.NewFileSet()
	stdImporter types.Importer
)

func TestMain(m *testing.M) {
	listed, err := goList(".", []string{"fmt", "math/bits", "math/rand", "os", "sort", "sync", "sync/atomic", "time"})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stdImporter = exportImporter(fixtureFset, listed)
	os.Exit(m.Run())
}

// TestFixtures runs each check over its testdata fixture package and
// compares the diagnostics against the fixture's //want annotations:
// a line expecting diagnostics carries `//want <check> [<check> ...]`.
// Every fixture both fires (annotated lines) and stays silent
// (unannotated constructs, suppressed lines, out-of-scope runs).
func TestFixtures(t *testing.T) {
	cases := []struct {
		name    string
		dir     string
		pkgPath string
		checks  []*Check
		// ignoreWants re-runs a fixture under a package path where the
		// check must not apply: every annotation must stay silent.
		ignoreWants bool
	}{
		// The host clock is fenced at the time import, in every sim scope
		// and in no host package.
		{name: "wallclock", dir: "wallclock", pkgPath: "repro/internal/machine/fixture", checks: []*Check{ClosedScopeCheck}},
		{name: "wallclock-out-of-scope", dir: "wallclock", pkgPath: "repro/internal/figures/fixture", checks: []*Check{ClosedScopeCheck}, ignoreWants: true},
		// The span and edge collectors run inside the simulation: obs is a
		// sim scope.
		{name: "wallclock-obs", dir: "wallclock", pkgPath: "repro/internal/obs/fixture", checks: []*Check{ClosedScopeCheck}},
		// The runlog/heartbeat telemetry sinks measure host wall time by
		// design; they live in internal/core, which must stay out of scope.
		{name: "wallclock-runlog-host-side", dir: "wallclock", pkgPath: "repro/internal/core/fixture", checks: []*Check{ClosedScopeCheck}, ignoreWants: true},
		// Every layer adds to the stats breakdowns from inside a run.
		{name: "wallclock-stats", dir: "wallclock", pkgPath: "repro/internal/stats/fixture", checks: []*Check{ClosedScopeCheck}},
		// internal/workload is the one sim scope that may import math/rand.
		{name: "unseededrand", dir: "unseededrand", pkgPath: "repro/internal/workload/fixture", checks: []*Check{UnseededRandCheck, ClosedScopeCheck}},
		{name: "unseededrand-out-of-scope", dir: "unseededrand", pkgPath: "repro/cmd/fixture", checks: []*Check{UnseededRandCheck}, ignoreWants: true},
		// The fixture's engine and thread are sim code: calls into them
		// are found by where the callee is declared, not by its name.
		{name: "maporder", dir: "maporder", pkgPath: "repro/internal/mem/fixture", checks: []*Check{MapOrderCheck}},
		{name: "rawconc", dir: "rawconc", pkgPath: "repro/internal/apps/fixture", checks: []*Check{RawConcCheck, ClosedScopeCheck}},
		{name: "rawconc-psync", dir: "rawconc", pkgPath: "repro/internal/psync", checks: []*Check{RawConcCheck, ClosedScopeCheck}},
		// The engine switches threads as coroutines and needs no host
		// concurrency either.
		{name: "rawconc-sim", dir: "rawconc", pkgPath: "repro/internal/sim", checks: []*Check{RawConcCheck, ClosedScopeCheck}},
		// The parallel sweep runner is host-facing by design.
		{name: "rawconc-out-of-scope", dir: "rawconc", pkgPath: "repro/internal/core", checks: []*Check{RawConcCheck, ClosedScopeCheck}, ignoreWants: true},
		// A worker barrier built on sync/atomic values (method calls that
		// never name the package at the call site) and park channels.
		{name: "rawconc-atomic-app", dir: "rawconc_atomic", pkgPath: "repro/internal/apps/fixture", checks: []*Check{RawConcCheck, ClosedScopeCheck}},
		{name: "rawconc-atomic-sim", dir: "rawconc_atomic", pkgPath: "repro/internal/sim", checks: []*Check{RawConcCheck, ClosedScopeCheck}},
		{name: "intmath", dir: "intmath", pkgPath: "repro/internal/sim/fixture", checks: []*Check{IntMathCheck}},
		// Float math is fine outside the machine model: apps compute on
		// simulated data and figures post-process results.
		{name: "intmath-out-of-scope", dir: "intmath", pkgPath: "repro/internal/figures/fixture", checks: []*Check{IntMathCheck}, ignoreWants: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			files, wants := parseFixture(t, fixtureFset, dir, tc.ignoreWants)
			diags, err := checkPackage(fixtureFset, stdImporter, tc.pkgPath, files, tc.checks)
			if err != nil {
				t.Fatalf("checkPackage: %v", err)
			}
			checkWants(t, diags, wants)
		})
	}
}

// checkWants compares diagnostics against //want annotations keyed
// "file:line".
func checkWants(t *testing.T, diags []Diagnostic, wants map[string][]string) {
	t.Helper()
	got := make(map[string][]string)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		got[key] = append(got[key], d.Check)
	}
	for key, names := range got {
		sort.Strings(names)
		if want := wants[key]; !equalStrings(names, want) {
			t.Errorf("%s: got %v, want %v", key, names, want)
		}
	}
	for key, names := range wants {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: missing expected diagnostics %v", key, names)
		}
	}
}

// parseFixture parses every fixture file in dir and collects its //want
// annotations as "file:line" -> sorted check names.
func parseFixture(t *testing.T, fset *token.FileSet, dir string, ignoreWants bool) ([]*ast.File, map[string][]string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	wants := make(map[string][]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		if ignoreWants {
			continue
		}
		for i, line := range strings.Split(string(src), "\n") {
			_, rest, ok := strings.Cut(line, "//want ")
			if !ok {
				continue
			}
			names := strings.Fields(rest)
			sort.Strings(names)
			wants[fmt.Sprintf("%s:%d", e.Name(), i+1)] = names
		}
	}
	return files, wants
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClosedScopeFixture runs closedscope over three fixture packages
// type-checked together: an engine-like sim package, a host package that
// imports only it, and a mesh-like sim package that imports both. Rule 2,
// and rule 1 on a module import, are only observable with more than one
// package, which is why this does not fit the TestFixtures harness.
func TestClosedScopeFixture(t *testing.T) {
	specs := []struct{ dir, path string }{
		{dir: "closedscope_sim", path: "repro/internal/sim/fixture"},
		{dir: "closedscope_host", path: "repro/internal/hostfix"},
		{dir: "closedscope_mesh", path: "repro/internal/mesh/fixture"},
	}
	imp := &moduleImporter{std: stdImporter, checked: map[string]*types.Package{}}
	var pkgs []*Package
	wants := make(map[string][]string)
	for _, s := range specs {
		dir := filepath.Join("testdata", "src", s.dir)
		files, w := parseFixture(t, fixtureFset, dir, false)
		for k, v := range w {
			wants[k] = v
		}
		pkg := &Package{Path: s.path, Fset: fixtureFset, Files: files}
		if err := typeCheck(fixtureFset, pkg, imp); err != nil {
			t.Fatalf("type-checking %s: %v", s.path, err)
		}
		imp.checked[s.path] = pkg.Pkg
		pkgs = append(pkgs, pkg)
	}
	diags := Run(pkgs, []*Check{ClosedScopeCheck})
	checkWants(t, diags, wants)
	// The host type is reported with the interface it satisfies, from a
	// package it does not import.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "WallDelay implements meshfix.FaultInjector") {
			found = true
		}
	}
	if !found {
		t.Errorf("no diagnostic names WallDelay and meshfix.FaultInjector:\n%v", diags)
	}
}

// TestLoad loads a pattern set narrower than ./..., the analyzer and its
// CLI, in dependency order.
func TestLoad(t *testing.T) {
	pkgs, err := Load("../..", []string{"./internal/lint", "./cmd/simlint"})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		for _, f := range p.Files {
			if name := p.Fset.Position(f.Package).Filename; strings.HasSuffix(name, "_test.go") {
				t.Errorf("%s: test file loaded", name)
			}
		}
		if p.Pkg == nil || p.Info == nil || p.DepOnly {
			t.Errorf("%s: not type-checked, or not linted", p.Path)
		}
	}
	// cmd/simlint imports internal/lint, so it type-checks second.
	if want := []string{"repro/internal/lint", "repro/cmd/simlint"}; !equalStrings(paths, want) {
		t.Errorf("loaded %v, want %v", paths, want)
	}
}

// TestLoadDependencies: a pattern that matches one package lints that
// package alone, and type-checks the module packages it imports first.
func TestLoadDependencies(t *testing.T) {
	pkgs, err := Load("../..", []string{"./internal/machine"})
	if err != nil {
		t.Fatal(err)
	}
	var linted, deps []string
	for _, p := range pkgs {
		if p.Pkg == nil {
			t.Errorf("%s: not type-checked", p.Path)
		}
		if p.DepOnly {
			deps = append(deps, p.Path)
		} else {
			linted = append(linted, p.Path)
		}
	}
	if want := []string{"repro/internal/machine"}; !equalStrings(linted, want) {
		t.Errorf("linted %v, want %v", linted, want)
	}
	if len(pkgs) == 0 || pkgs[len(pkgs)-1].Path != "repro/internal/machine" {
		t.Errorf("internal/machine is not type-checked after its imports")
	}
	for _, want := range []string{"repro/internal/sim", "repro/internal/mem", "repro/internal/mesh"} {
		if !slices.Contains(deps, want) {
			t.Errorf("dependencies %v miss %s", deps, want)
		}
	}
	if diags := Run(pkgs, Checks()); len(diags) != 0 {
		t.Errorf("Run: %v", diags)
	}
}

// TestLoadBuildConstraints: a file the compiler does not build is not
// linted, even in a sim scope and importing time.
func TestLoadBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":                 "module fixmod\n\ngo 1.22\n",
		"internal/sim/sim.go":    "package sim\n\nfunc Step(t int64) int64 { return t + 1 }\n",
		"internal/sim/ignore.go": "//go:build ignore\n\npackage sim\n\nimport \"time\"\n\nfunc Wall() int64 { return time.Now().UnixNano() }\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("loaded %d packages, want fixmod/internal/sim with sim.go alone", len(pkgs))
	}
	if diags := Run(pkgs, Checks()); len(diags) != 0 {
		t.Errorf("Run: %v", diags)
	}
}

// TestModulesClean lints both modules as make lint does, so that go test
// fails on any finding: the root module, and cmd/bench with the root
// module's packages as its dependencies.
func TestModulesClean(t *testing.T) {
	for _, dir := range []string{"../..", "../../cmd/bench"} {
		pkgs, err := Load(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Run(pkgs, Checks()) {
			t.Error(d)
		}
	}
}

// TestDocListsChecks checks that the package doc lists exactly the
// suite, in order.
func TestDocListsChecks(t *testing.T) {
	src, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, line := range strings.Split(string(src), "\n") {
		entry, ok := strings.CutPrefix(line, "//\t")
		if name, _, dash := strings.Cut(entry, " — "); ok && dash {
			listed = append(listed, strings.TrimSpace(name))
		}
	}
	var want []string
	for _, c := range Checks() {
		want = append(want, c.Name)
	}
	if !equalStrings(listed, want) {
		t.Errorf("doc.go lists %v, want Checks() order %v", listed, want)
	}
}

// TestStaleAllow checks the audit half of suppression handling: a
// well-formed allow that suppresses nothing is itself a diagnostic.
func TestStaleAllow(t *testing.T) {
	const src = `package fixture

func fine(a, b int) int {
	//lint:allow simlint/maporder nothing on this line ever fired
	return a + b
}

func covered(m map[int]int) []int {
	var out []int
	for k := range m {
		//lint:allow simlint/maporder order does not matter here
		out = append(out, k)
	}
	return out
}
`
	f, err := parser.ParseFile(fixtureFset, "stale.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := checkPackage(fixtureFset, stdImporter, "repro/internal/figures/fixture", []*ast.File{f}, []*Check{MapOrderCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Check != "allow" ||
		!strings.Contains(diags[0].Message, "suppresses nothing") {
		t.Fatalf("want exactly one stale-allow diagnostic, got:\n%v", diags)
	}
	if diags[0].Pos.Line != 4 {
		t.Errorf("stale allow reported at line %d, want 4", diags[0].Pos.Line)
	}

	// The same stale allow is NOT reported when its check is deselected:
	// a -checks run says nothing about the others.
	none, err := checkPackage(fixtureFset, stdImporter, "repro/internal/figures/fixture", []*ast.File{f}, []*Check{IntMathCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("stale maporder allow reported under -checks intmath:\n%v", none)
	}
}

// TestSuppressionValidation checks that malformed //lint:allow comments
// are themselves reported: a suppression may not silently fail to
// suppress.
func TestSuppressionValidation(t *testing.T) {
	const src = `package fixture

func a(m map[int]int) []int {
	var out []int
	//lint:allow simlint/maporder
	for k := range m {
		out = append(out, k)
	}
	return out
}

//lint:allow simlint/nosuchcheck because reasons
//lint:allow vet/printf wrong namespace
func b() {}
`
	f, err := parser.ParseFile(fixtureFset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := checkPackage(fixtureFset, stdImporter, "repro/internal/figures/fixture", []*ast.File{f}, []*Check{MapOrderCheck})
	if err != nil {
		t.Fatal(err)
	}
	var allow, maporder int
	for _, d := range diags {
		switch d.Check {
		case "allow":
			allow++
		case "maporder":
			maporder++
		}
	}
	if allow != 3 {
		t.Errorf("got %d allow diagnostics, want 3 (missing reason, unknown check, wrong namespace):\n%v", allow, diags)
	}
	// The reasonless suppression must not suppress: the append inside
	// the map range still fires.
	if maporder != 1 {
		t.Errorf("got %d maporder diagnostics, want 1 (reasonless lint:allow must not suppress):\n%v", maporder, diags)
	}
}

// TestSelect covers the check-subset flag parsing.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(Checks()) {
		t.Fatalf("Select(\"\") = %d checks, err %v", len(all), err)
	}
	two, err := Select("maporder, simlint/rawconc")
	if err != nil || len(two) != 2 || two[0].Name != "maporder" || two[1].Name != "rawconc" {
		t.Fatalf("Select subset = %v, err %v", two, err)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Fatal("Select(nosuch) did not error")
	}
}
