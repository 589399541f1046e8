package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowMarker is the suppression comment syntax:
//
//	//lint:allow simlint/<check> <reason>
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory — a suppression must document why the construct is safe.
const allowMarker = "lint:allow "

// suppression is one parsed //lint:allow comment.
type suppression struct {
	check   string
	reason  string
	pkgPath string
	pos     token.Position
	used    bool
}

// suppressions indexes parsed allow-comments by (file, line) and keeps
// them in parse order for the stale audit.
type suppressions struct {
	byLine  map[string]map[int][]*suppression
	ordered []*suppression
}

// allows reports whether d is covered by an allow-comment on its own
// line or the line above, marking the matching suppression used.
func (s *suppressions) allows(d Diagnostic) bool {
	lines := s.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, sup := range lines[line] {
			if sup.check == d.Check {
				sup.used = true
				hit = true
			}
		}
	}
	return hit
}

// auditStale reports every well-formed suppression that suppressed
// nothing during this run, restricted to the selected checks and to
// packages the named check concerns — a wallclock allow in a host
// package never had anything to suppress by construction, and a run
// with -checks maporder says nothing about the others.
func (s *suppressions) auditStale(checks []*Check, out *[]Diagnostic) {
	selected := make(map[string]*Check, len(checks))
	for _, c := range checks {
		selected[c.Name] = c
	}
	for _, sup := range s.ordered {
		if sup.used {
			continue
		}
		c, ok := selected[sup.check]
		if !ok {
			continue
		}
		if c.Applies != nil && !c.Applies(sup.pkgPath) {
			continue
		}
		*out = append(*out, Diagnostic{
			Check:   "allow",
			Pos:     sup.pos,
			Message: "lint:allow simlint/" + sup.check + " suppresses nothing; remove the stale suppression",
		})
	}
}

// collectModuleSuppressions parses every //lint:allow comment across the
// linted packages, which DepOnly ones are not. Malformed suppressions
// (unknown form, missing reason) are reported into raw under the
// pseudo-check "allow" so they cannot silently fail to suppress.
func collectModuleSuppressions(pkgs []*Package, raw *[]Diagnostic) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]*suppression)}
	for _, pkg := range pkgs {
		if !pkg.DepOnly {
			collectSuppressions(pkg.Fset, pkg.Path, pkg.Files, s, raw)
		}
	}
	return s
}

// collectSuppressions parses the //lint:allow comments of one package's
// files into s.
func collectSuppressions(fset *token.FileSet, pkgPath string, files []*ast.File, s *suppressions, raw *[]Diagnostic) {
	report := func(pos token.Pos, msg string) {
		*raw = append(*raw, Diagnostic{Check: "allow", Pos: fset.Position(pos), Message: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowMarker) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowMarker))
				name, reason, _ := strings.Cut(rest, " ")
				if !strings.HasPrefix(name, "simlint/") {
					report(c.Pos(), "lint:allow target must be simlint/<check>")
					continue
				}
				name = strings.TrimPrefix(name, "simlint/")
				if !knownCheck(name) {
					report(c.Pos(), "lint:allow names unknown check simlint/"+name)
					continue
				}
				if strings.TrimSpace(reason) == "" {
					report(c.Pos(), "lint:allow simlint/"+name+" needs a reason")
					continue
				}
				pos := fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*suppression)
					s.byLine[pos.Filename] = lines
				}
				sup := &suppression{check: name, reason: reason, pkgPath: pkgPath, pos: pos}
				lines[pos.Line] = append(lines[pos.Line], sup)
				s.ordered = append(s.ordered, sup)
			}
		}
	}
}

func knownCheck(name string) bool {
	for _, c := range Checks() {
		if c.Name == name {
			return true
		}
	}
	return false
}
