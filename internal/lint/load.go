package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. repro/internal/sim
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	imports []string // intra-module imports, for load ordering
}

// Load parses and type-checks the packages matched by patterns, rooted
// at the module directory root. Patterns are "./..." (every package
// under root), or "./dir" / "dir" for a single package directory.
// Test files and testdata, vendor, and hidden directories are skipped.
//
// Loading is stdlib-only: module-internal imports resolve against the
// packages being loaded (so patterns that include a package's
// dependencies type-check them once), and everything else — the
// standard library — is type-checked from source via go/importer.
func Load(root string, patterns []string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	byPath := make(map[string]*Package, len(dirs))
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := parseDir(fset, root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no buildable Go files
		}
		pkgs = append(pkgs, pkg)
		byPath[pkg.Path] = pkg
	}

	ordered, err := loadOrder(pkgs, byPath)
	if err != nil {
		return nil, err
	}

	checked := make(map[string]*types.Package, len(ordered))
	imp := &moduleImporter{
		source:  importer.ForCompiler(fset, "source", nil),
		checked: checked,
	}
	for _, pkg := range ordered {
		if err := typeCheck(fset, pkg, imp); err != nil {
			return nil, err
		}
		checked[pkg.Path] = pkg.Pkg
	}
	return ordered, nil
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// expandPatterns resolves the command-line patterns to package dirs.
func expandPatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses the non-test files of one package directory; returns
// nil if it holds none.
func parseDir(fset *token.FileSet, root, modPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	imports := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") ||
			strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == modPath || strings.HasPrefix(path, modPath+"/") {
				imports[path] = true
			}
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: fset, Files: files}
	for imp := range imports {
		pkg.imports = append(pkg.imports, imp)
	}
	sort.Strings(pkg.imports)
	return pkg, nil
}

// loadOrder topologically sorts pkgs by their intra-module imports so
// each package type-checks after its dependencies.
func loadOrder(pkgs []*Package, byPath map[string]*Package) ([]*Package, error) {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int, len(pkgs))
	var ordered []*Package
	var visit func(p *Package, chain []string) error
	visit = func(p *Package, chain []string) error {
		switch state[p.Path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(chain, p.Path), " -> "))
		}
		state[p.Path] = visiting
		for _, imp := range p.imports {
			dep, ok := byPath[imp]
			if !ok {
				return fmt.Errorf("lint: %s imports %s, which is outside the loaded pattern set (lint the whole module: simlint ./...)", p.Path, imp)
			}
			if err := visit(dep, append(chain, p.Path)); err != nil {
				return err
			}
		}
		state[p.Path] = done
		ordered = append(ordered, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// moduleImporter resolves module-internal imports from the packages
// loaded so far and everything else from stdlib source.
type moduleImporter struct {
	source  types.Importer
	checked map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	return m.source.Import(path)
}

// typeCheck populates pkg.Pkg and pkg.Info.
func typeCheck(fset *token.FileSet, pkg *Package, imp types.Importer) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Pkg, pkg.Info = tpkg, info
	return nil
}

// checkPackage type-checks the given files as a single package with the
// given import path, resolving its imports with imp, and runs the checks
// over it — the fixture-test entry point (Load is the production path).
func checkPackage(fset *token.FileSet, imp types.Importer, pkgPath string, files []*ast.File, checks []*Check) ([]Diagnostic, error) {
	pkg := &Package{Path: pkgPath, Fset: fset, Files: files}
	if err := typeCheck(fset, pkg, imp); err != nil {
		return nil, err
	}
	return Run([]*Package{pkg}, checks), nil
}
