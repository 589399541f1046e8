package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FingerprintCheck guards the sweep memoization key. The runner caches
// results by the canonical RunConfig produced by the `fingerprint`
// function; two hazards can silently alias distinct runs:
//
//  1. a config field with reference semantics (pointer, slice, map,
//     chan, func, interface) — struct equality then compares identity,
//     not content, so semantically different runs can collide (or
//     identical runs can miss) in the cache;
//  2. a fingerprint that rebuilds its result field-by-field and drops a
//     newly added field, so configurations differing only in that field
//     collapse onto one cached result.
//
// The check activates on any function named `fingerprint` (or
// `Fingerprint`) with signature func(T) T for a named struct T: every
// field reachable from T must be a pure value type, and the function
// must provably cover all fields — by returning the (possibly mutated)
// parameter, or by a composite literal that names every field. In the
// package that owns the runner (internal/core) the function's absence
// is itself an error.
var FingerprintCheck = &Check{
	Name:  "fingerprint",
	Doc:   "verify the canonical RunConfig fingerprint covers every field and that all fields have value semantics",
	Scope: "every package (a missing fingerprint is an error only in internal/core)",
	Run:   runFingerprint,
}

func runFingerprint(p *Pass) {
	found := false
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || (fd.Name.Name != "fingerprint" && fd.Name.Name != "Fingerprint") {
				continue
			}
			st, named := fingerprintType(p, fd)
			if st == nil {
				continue
			}
			found = true
			checkValueSemantics(p, fd, named, st)
			checkCoverage(p, fd, named, st)
		}
	}
	if !found && isCorePkg(p.PkgPath) {
		pos := p.Files[0].Package
		p.Reportf(pos, "package %s has no fingerprint(T) T function canonicalizing the memo key; the runner's cache has no guarded fingerprint", p.PkgPath)
	}
}

func isCorePkg(path string) bool {
	return path == "internal/core" || strings.HasSuffix(path, "/internal/core")
}

// fingerprintType returns T's struct type for a func(T) T declaration.
func fingerprintType(p *Pass, fd *ast.FuncDecl) (*types.Struct, *types.Named) {
	obj, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil, nil
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return nil, nil
	}
	pt, rt := sig.Params().At(0).Type(), sig.Results().At(0).Type()
	if !types.Identical(pt, rt) {
		return nil, nil
	}
	named, ok := pt.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return st, named
}

// checkValueSemantics reports every field reachable from T whose type
// has reference semantics and so breaks memo-key equality.
func checkValueSemantics(p *Pass, fd *ast.FuncDecl, named *types.Named, st *types.Struct) {
	var walk func(prefix string, st *types.Struct, seen map[*types.Struct]bool)
	walk = func(prefix string, st *types.Struct, seen map[*types.Struct]bool) {
		if seen[st] {
			return
		}
		seen[st] = true
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			path := prefix + f.Name()
			if why := referenceKind(f.Type()); why != "" {
				p.Reportf(fd.Pos(), "%s field %s is a %s (%s); memo-key equality would compare identity, not content — keep config fields pure values",
					named.Obj().Name(), path, why, f.Type().String())
				continue
			}
			if sub, ok := structUnder(f.Type()); ok {
				walk(path+".", sub, seen)
			}
		}
	}
	walk("", st, map[*types.Struct]bool{})
}

// referenceKind names the reference-semantics kind of t, or "" when t
// is a pure value type. Arrays recurse into their element.
func referenceKind(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return "pointer"
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	case *types.Chan:
		return "channel"
	case *types.Signature:
		return "function"
	case *types.Interface:
		return "interface"
	case *types.Array:
		return referenceKind(u.Elem())
	}
	return ""
}

// structUnder returns t's underlying struct type, unwrapping arrays.
func structUnder(t types.Type) (*types.Struct, bool) {
	u := t.Underlying()
	if arr, ok := u.(*types.Array); ok {
		u = arr.Elem().Underlying()
	}
	st, ok := u.(*types.Struct)
	return st, ok
}

// checkCoverage verifies the function's return values cover every field
// of T: returning the parameter covers all fields; a composite literal
// must name each one.
func checkCoverage(p *Pass, fd *ast.FuncDecl, named *types.Named, st *types.Struct) {
	param := paramObject(p, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		res := ret.Results[0]
		if id, ok := res.(*ast.Ident); ok {
			if param != nil && p.Info.Uses[id] == param {
				return true // returns the whole parameter: every field covered
			}
			p.Reportf(ret.Pos(), "fingerprint returns %s, not its parameter or a fully keyed %s literal; cannot prove every field is covered", id.Name, named.Obj().Name())
			return true
		}
		lit, ok := res.(*ast.CompositeLit)
		if !ok {
			p.Reportf(ret.Pos(), "fingerprint result is not the parameter or a composite literal; cannot prove every field of %s is covered", named.Obj().Name())
			return true
		}
		covered := make(map[string]bool, len(lit.Elts))
		keyed := true
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				keyed = false
				break
			}
			if key, ok := kv.Key.(*ast.Ident); ok {
				covered[key.Name] = true
			}
		}
		if !keyed {
			if len(lit.Elts) == st.NumFields() {
				return true // positional literal with all fields present
			}
			p.Reportf(ret.Pos(), "fingerprint composite literal is positional with %d of %d fields; name every field of %s", len(lit.Elts), st.NumFields(), named.Obj().Name())
			return true
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !covered[f.Name()] {
				p.Reportf(ret.Pos(), "fingerprint composite literal omits %s.%s; a new config field must enter the memo key or be explicitly normalized", named.Obj().Name(), f.Name())
			}
		}
		return true
	})
}

// paramObject returns the object of the function's single parameter.
func paramObject(p *Pass, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil || len(fd.Type.Params.List) != 1 || len(fd.Type.Params.List[0].Names) != 1 {
		return nil
	}
	return p.Info.Defs[fd.Type.Params.List[0].Names[0]]
}
