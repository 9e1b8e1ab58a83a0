// Package kindswitch enforces exhaustive dispatch over the module's
// kind enums and over the protocol's Request query fields.
//
// Two checks:
//
//  1. Enum switches: a switch whose tag is a module-local named type
//     with a declared constant set (≥2 constants, e.g. sketch flavors,
//     set kinds, ANF readouts) must either cover every constant or carry
//     an explicit default — silently falling through on a new kind is how
//     a new sketch flavor serves wrong answers instead of
//     ErrUnsupportedQuery.  Constants are compared by value, so
//     re-exported aliases (root-package KMins for sketch.KMins) count.
//
//  2. Request coverage: a function referencing more than half of the
//     Request envelope's query pointer fields — i.e. one that clearly
//     enumerates kinds — must reference all of them or route through
//     Request.Query(); partial enumerations rot when a query kind is
//     added.
package kindswitch

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"adsketch/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "kindswitch",
	Doc: "require switches over kind enums to cover every kind or carry a default, and " +
		"functions enumerating Request query fields to enumerate all of them",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sw, ok := n.(*ast.SwitchStmt); ok {
				checkSwitch(pass, sw)
			}
			return true
		})
	}
	checkRequestCoverage(pass)
	return nil
}

// moduleLocal reports whether the declaring package belongs to the same
// module as the analyzed package (shared first path segment), excluding
// the standard library and third-party enums from the check.
func moduleLocal(pass *analysis.Pass, pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	first := func(p string) string {
		if i := strings.IndexByte(p, '/'); i >= 0 {
			return p[:i]
		}
		return p
	}
	return pkg == pass.Pkg || first(pkg.Path()) == first(pass.Pkg.Path())
}

// enumMembers returns the named constants of type t declared in its own
// package, keyed by exact constant value.
func enumMembers(named *types.Named) map[string]string {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	members := make(map[string]string)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		members[c.Val().ExactString()] = c.Name()
	}
	return members
}

// checkSwitch applies the enum exhaustiveness check to one switch.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	t := pass.TypesInfo.TypeOf(sw.Tag)
	if t == nil {
		return
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || !moduleLocal(pass, named.Obj().Pkg()) {
		return
	}
	members := enumMembers(named)
	if len(members) < 2 {
		return
	}
	covered := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default handles future kinds
		}
		for _, e := range cc.List {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
				covered[tv.Value.ExactString()] = true
			}
		}
	}
	var missing []string
	for val, name := range members {
		if !covered[val] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Pos(), "switch on %s is not exhaustive: missing %s — add the missing cases or an explicit default (e.g. return ErrUnsupportedQuery)",
		named.Obj().Name(), strings.Join(missing, ", "))
}

// requestQueryFields returns the *XxxQuery pointer fields of a struct
// type named Request declared in the analyzed package, if any.
func requestQueryFields(pass *analysis.Pass) []*types.Var {
	obj := pass.Pkg.Scope().Lookup("Request")
	if obj == nil {
		return nil
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var fields []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		ptr, ok := f.Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := types.Unalias(ptr.Elem()).(*types.Named)
		if ok && strings.HasSuffix(named.Obj().Name(), "Query") {
			fields = append(fields, f)
		}
	}
	return fields
}

// checkRequestCoverage flags functions that enumerate most — but not
// all — of the Request query fields.
func checkRequestCoverage(pass *analysis.Pass) {
	fields := requestQueryFields(pass)
	if len(fields) < 2 {
		return
	}
	index := make(map[types.Object]int, len(fields))
	for i, f := range fields {
		index[f] = i
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			seen := make(map[int]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if s, ok := pass.TypesInfo.Selections[sel]; ok {
					if i, tracked := index[s.Obj()]; tracked {
						seen[i] = true
					}
				}
				return true
			})
			if len(seen) <= len(fields)/2 || len(seen) == len(fields) {
				continue
			}
			var missing []string
			for i, fld := range fields {
				if !seen[i] {
					missing = append(missing, fld.Name())
				}
			}
			pass.Reportf(fd.Name.Pos(), "%s handles %d of %d Request query kinds (missing %s): handle every kind or dispatch through Request.Query()",
				fd.Name.Name, len(seen), len(fields), strings.Join(missing, ", "))
		}
	}
}
