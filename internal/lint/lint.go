package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, carrying its check name and position.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: simlint/%s: %s", d.Pos, d.Check, d.Message)
}

// Check is one analyzer of the suite, run on one package at a time.
type Check struct {
	Name string
	Doc  string
	// Scope names where the check looks, for -list ("sim packages",
	// "every package", ...).
	Scope string
	// Applies reports whether the check concerns the package with the
	// given import path; nil means every package. A check runs only on
	// the packages it applies to, and only there are its //lint:allow
	// suppressions audited.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// Pass carries one (check, package) analysis run.
type Pass struct {
	Check   *Check
	Fset    *token.FileSet
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info
	Files   []*ast.File
	// Loaded is every package of the run, dependency-only ones included,
	// for checks that look past the package's own imports.
	Loaded []*Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Check.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Checks returns the full suite in stable order.
func Checks() []*Check {
	return []*Check{
		WallclockCheck,
		UnseededRandCheck,
		MapOrderCheck,
		RawConcCheck,
		FingerprintCheck,
		ClosedScopeCheck,
		IntMathCheck,
	}
}

// Select returns the named subset of the suite ("" selects all).
func Select(names string) ([]*Check, error) {
	all := Checks()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*Check, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []*Check
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimPrefix(strings.TrimSpace(n), "simlint/")
		c, ok := byName[n]
		if !ok {
			valid := make([]string, len(all))
			for i, c := range all {
				valid[i] = c.Name
			}
			return nil, fmt.Errorf("lint: unknown check %q (valid: %s)", n, strings.Join(valid, ", "))
		}
		out = append(out, c)
	}
	return out, nil
}

// simScopes are the simulator-facing packages where only simulated
// cycles and explicitly seeded randomness may be observed, and no host
// concurrency used: everything a run's result can depend on must be
// derived from the RunConfig. closedscope keeps the list closed under
// module imports.
var simScopes = []string{
	"internal/sim",
	"internal/machine",
	"internal/mem",
	"internal/mesh",
	"internal/am",
	"internal/apps",
	"internal/workload",
	"internal/fault",
	"internal/psync",
	// obs collects metrics and spans inside the simulation; its data must
	// be a pure function of the run, so it is held to the same standard.
	// (The host-side telemetry sinks — run log, heartbeat — live in
	// internal/core, deliberately outside this list.)
	"internal/obs",
	// stats holds the cycle breakdowns and traffic volumes that every
	// layer adds to.
	"internal/stats",
}

// inScope reports whether pkgPath falls under any of the scope path
// fragments (matched on import-path segment boundaries, so fixtures
// under any module name participate).
func inScope(pkgPath string, scopes []string) bool {
	for _, s := range scopes {
		if pkgPath == s || strings.HasPrefix(pkgPath, s+"/") ||
			strings.HasSuffix(pkgPath, "/"+s) || strings.Contains(pkgPath, "/"+s+"/") {
			return true
		}
	}
	return false
}

// Run executes the checks over the packages that are not DepOnly and
// returns the surviving diagnostics (suppressions applied, stale
// suppressions reported), sorted by position.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	var raw []Diagnostic
	sup := collectModuleSuppressions(pkgs, &raw)
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			continue
		}
		for _, c := range checks {
			if c.Applies != nil && !c.Applies(pkg.Path) {
				continue
			}
			c.Run(&Pass{
				Check:   c,
				Fset:    pkg.Fset,
				PkgPath: pkg.Path,
				Pkg:     pkg.Pkg,
				Info:    pkg.Info,
				Files:   pkg.Files,
				Loaded:  pkgs,
				diags:   &raw,
			})
		}
	}
	var out []Diagnostic
	for _, d := range raw {
		if sup.allows(d) {
			continue
		}
		out = append(out, d)
	}
	// A suppression that suppressed nothing is itself a finding: stale
	// allows hide the day the hazard comes back.
	sup.auditStale(checks, &out)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	// A hazard under nested map loops is found once per enclosing loop;
	// report it once.
	dedup := out[:0]
	for i, d := range out {
		if i > 0 && d == out[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup
}
