// Package deadsurface finds the exported surface that nothing but tests
// uses: every exported function, method, type, constant and variable of
// the packages in scope that no non-test code references outside the
// identifier's own declaration.
//
// It is a whole-program check, so it does not run under `go vet`: it
// takes every package of the program at once (`adsvet deadsurface`
// loads them through internal/analysis/driver, test files left out), and
// a reference counts only from live code.  The walk is a least fixpoint:
//
//   - a declaration that is not a candidate — unexported, or in a package
//     out of scope — is live, except a method;
//   - a candidate is live once a live declaration references it;
//   - a method is live when its receiver type is live and it is either
//     not a candidate, referenced by live code, or implements a method of
//     an interface the program can see (a call through the interface
//     reaches it);
//   - a live declaration makes live what it references.
//
// So a type used only by its own methods and by an unused constructor is
// reported along with them.  Struct fields and interface methods are part
// of their type and are not judged on their own; neither are flags, which
// the type checker cannot see used from a Makefile or the docs.
//
// A deliberate keep carries the framework's suppression directive on the
// declaration's line or the line above it:
//
//	//adsvet:ignore deadsurface <reason>
package deadsurface

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"adsketch/internal/analysis"
	"adsketch/internal/analysis/driver"
)

// Name is the analyzer name findings and suppression directives carry.
const Name = "deadsurface"

// Doc is the description `adsvet help` prints.
const Doc = "list exported identifiers of the serving packages that only tests use " +
	"(whole program: `adsvet deadsurface`, report-only in `make analyze`)"

// decl is one package-level declaration or method.
type decl struct {
	key       string // package path, receiver type for a method, name
	obj       types.Object
	candidate bool     // exported, in scope and not kept: judged, not assumed live
	recv      string   // a method's receiver type key
	uses      []string // keys the declaration references
	implement bool     // a method matching some interface method
	live      bool
}

// Check runs the walk over pkgs, which share one FileSet and together form
// the program, and returns the findings of the packages inScope accepts,
// after each package's adsvet:ignore directives, sorted by position.
func Check(pkgs []*driver.Package, inScope func(pkgPath string) bool) []analysis.Diagnostic {
	ifaces := interfaceMethods(pkgs)
	byKey := make(map[string][]*decl)
	methods := make(map[string][]*decl)
	var all []*decl
	var out []analysis.Diagnostic
	for _, p := range pkgs {
		decls := declsOf(p, ifaces)
		if inScope(p.PkgPath) {
			out = append(out, markCandidates(p, decls)...)
		}
		for _, d := range decls {
			all = append(all, d)
			byKey[d.key] = append(byKey[d.key], d)
			if d.recv != "" {
				methods[d.recv] = append(methods[d.recv], d)
			}
		}
	}

	referenced := make(map[string]bool)
	liveType := make(map[string]bool)
	var queue []*decl
	consider := func(d *decl) {
		if d.live {
			return
		}
		used := !d.candidate || referenced[d.key]
		if d.recv != "" {
			used = liveType[d.recv] && (used || d.implement)
		}
		if used {
			d.live = true
			queue = append(queue, d)
		}
	}
	for _, d := range all {
		consider(d)
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if _, ok := d.obj.(*types.TypeName); ok && !liveType[d.key] {
			liveType[d.key] = true
			for _, m := range methods[d.key] {
				consider(m)
			}
		}
		for _, k := range d.uses {
			if !referenced[k] {
				referenced[k] = true
				for _, e := range byKey[k] {
					consider(e)
				}
			}
		}
	}

	for _, d := range all {
		if d.candidate && !d.live {
			out = append(out, finding(d))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// markCandidates sets candidate on the exported declarations of an
// in-scope package that no adsvet:ignore directive keeps: a kept name is
// live, so what it references counts.  It returns the package's
// directives that give no reason, which the framework reports.
func markCandidates(p *driver.Package, decls []*decl) []analysis.Diagnostic {
	var raw []analysis.Diagnostic
	for _, d := range decls {
		if d.obj.Exported() && d.key != "" {
			raw = append(raw, finding(d))
		}
	}
	open := make(map[token.Pos]bool)
	var bare []analysis.Diagnostic
	for _, d := range analysis.Suppress(p.Fset, p.Files, raw) {
		if d.Analyzer == Name {
			open[d.Pos] = true
		} else {
			bare = append(bare, d)
		}
	}
	for _, d := range decls {
		d.candidate = open[d.obj.Pos()]
	}
	return bare
}

// finding reports a declaration as dead.
func finding(d *decl) analysis.Diagnostic {
	return analysis.Diagnostic{
		Pos:      d.obj.Pos(),
		Analyzer: Name,
		Message:  fmt.Sprintf("exported %s %s has no non-test use", kind(d), display(d)),
	}
}

// declsOf lists a package's declarations with what each references.
// Test files are skipped, whether or not the loader included them.
func declsOf(p *driver.Package, ifaces map[string]bool) []*decl {
	var out []*decl
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				fn, _ := p.TypesInfo.Defs[gd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				d := &decl{key: keyOf(fn), obj: fn, uses: usesIn(p.TypesInfo, gd)}
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
					d.recv = typeKey(sig.Recv().Type())
					d.implement = ifaces[fn.Name()+" "+signature(sig)]
				}
				out = append(out, d)
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					default:
						continue
					}
					uses := usesIn(p.TypesInfo, spec)
					for _, id := range names {
						if obj := p.TypesInfo.Defs[id]; obj != nil {
							out = append(out, &decl{key: keyOf(obj), obj: obj, uses: uses})
						}
					}
				}
			}
		}
	}
	return out
}

// usesIn returns the keys of the package-level objects and methods a
// syntax tree references.
func usesIn(info *types.Info, n ast.Node) []string {
	var keys []string
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		k := keyOf(info.Uses[id])
		if v, ok := info.Defs[id].(*types.Var); ok && v.Embedded() {
			k = typeKey(v.Type()) // an embedded field names its type
		}
		if k != "" {
			keys = append(keys, k)
		}
		return true
	})
	return keys
}

// keyOf names a package-level object or a concrete method the same way in
// every package's type check (each check has its own objects): "" for
// anything else — locals, fields, interface methods, the blank name.
func keyOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "_" {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if t := typeKey(recv.Type()); t != "" {
				return t + "." + fn.Name()
			}
			return ""
		}
		obj = fn
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// typeKey is the key of a method receiver's named type, "" for an
// interface.
func typeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || types.IsInterface(n) {
		return ""
	}
	return keyOf(n.Origin().Obj())
}

// interfaceMethods collects "name signature" for every method of every
// interface type the program names: those its packages write, and the
// named interfaces of every package they import, the standard library's
// included (fmt.Stringer, error, json.Marshaler, sort.Interface, ...).
func interfaceMethods(pkgs []*driver.Package) map[string]bool {
	out := make(map[string]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			out[m.Name()+" "+signature(m.Type().(*types.Signature))] = true
		}
	}
	seen := make(map[string]bool)
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg.Path()] {
			return
		}
		seen[pkg.Path()] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.TypesInfo.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
		visit(p.Pkg)
	}
	return out
}

// signature prints a method's parameter and result types with full
// package paths — no receiver, no names — so it compares across type
// checks.
func signature(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for i, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString([]string{"(", ") ("}[i])
		for j := 0; j < t.Len(); j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			if sig.Variadic() && i == 0 && j == t.Len()-1 {
				b.WriteString("...")
			}
			b.WriteString(types.TypeString(t.At(j).Type(), qual))
		}
	}
	b.WriteString(")")
	return b.String()
}

func kind(d *decl) string {
	switch d.obj.(type) {
	case *types.Func:
		if d.recv != "" {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// display names a finding the way Go code would write it:
// pkg.Name or pkg.Type.Method.
func display(d *decl) string {
	name := d.obj.Pkg().Name() + "." + d.obj.Name()
	if d.recv != "" {
		name = d.obj.Pkg().Name() + d.recv[strings.LastIndex(d.recv, "."):] + "." + d.obj.Name()
	}
	return name
}
