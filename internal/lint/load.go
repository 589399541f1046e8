package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. repro/internal/sim
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// DepOnly marks a module package that the patterns import but do not
	// match. It is type-checked and closedscope sees it, but no check
	// runs on it and its allows are not audited.
	DepOnly bool
}

// listedPackage is one package of go list's JSON stream.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// Load parses and type-checks the packages matched by patterns, which
// the go command resolves in dir as it does for go build: no patterns
// means "./...", build constraints apply, and test files are left out.
//
// One go list call names the matched packages and everything they
// import, dependencies first. Module packages are type-checked from
// source in that order, so each has exactly one types.Package and
// closedscope's cross-package checks stay sound; standard-library
// imports are read from the export data go list reports.
func Load(dir string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{std: exportImporter(fset, listed), checked: make(map[string]*types.Package)}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg := &Package{Path: lp.ImportPath, Fset: fset, DepOnly: lp.DepOnly}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		if err := typeCheck(fset, pkg, imp); err != nil {
			return nil, err
		}
		imp.checked[pkg.Path] = pkg.Pkg
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs go list -deps -export in dir and decodes the packages it
// prints, each after its dependencies.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = errors.New(string(bytes.TrimSpace(ee.Stderr)))
		}
		return nil, fmt.Errorf("lint: go list: %w", err)
	}
	var listed []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		listed = append(listed, lp)
	}
}

// exportImporter imports the listed standard-library packages from their
// export data.
func exportImporter(fset *token.FileSet, listed []listedPackage) types.Importer {
	export := make(map[string]string)
	for _, lp := range listed {
		if lp.Standard {
			export[lp.ImportPath] = lp.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := export[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("lint: no export data for %s", path)
	})
}

// moduleImporter resolves module imports to the packages type-checked so
// far and everything else from standard-library export data.
type moduleImporter struct {
	std     types.Importer
	checked map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	return m.std.Import(path)
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
