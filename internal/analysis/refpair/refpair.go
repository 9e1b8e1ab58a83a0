// Package refpair flags functions that obtain a pinned resource and can
// return without releasing it.
//
// The serving tier's zero-downtime guarantees rest on reference counts:
// Catalog.Acquire pairs with Dataset.Release, the registry's pin with
// unpin, and SketchFile handles from OpenSketchFile / MmapSketchFile
// with Close.  A leaked count pins a retired dataset version in memory
// forever (and keeps its mmap mapped); a missing Close leaks a mapping
// or a file's bytes per request.
//
// The walk is lostcancel-style but lexical rather than CFG-based: an
// acquisition whose handle stays local to the function must either be
// released in a defer, or have a matching release call before every
// return that follows it.  Handles that escape — returned, stored,
// passed to another function, or captured by a non-deferred closure —
// transfer ownership and are not tracked.  Returns inside the
// acquisition's own `if err != nil` guard are exempt: the failed call
// returned no resource.
package refpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"adsketch/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "refpair",
	Doc: "flag acquisitions of pinned resources (Catalog.Acquire, registry pin, " +
		"OpenSketchFile/MmapSketchFile) that can return without the matching Release/unpin/Close",
	Run: run,
}

// pairs maps each acquisition call name to its expected release name.
var pairs = map[string]string{
	"Acquire":         "Release",
	"AcquireResident": "Release",
	"pin":             "unpin",
	"OpenSketchFile":  "Close",
	"MmapSketchFile":  "Close",
}

// releaseNames is the set of calls that drop a reference.
var releaseNames = map[string]bool{"Release": true, "unpin": true, "Close": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// acquisition is one tracked acquire site inside a function.
type acquisition struct {
	handle  types.Object // the variable holding the resource
	errObj  types.Object // the paired error variable, if any
	pos     token.Pos
	call    string // acquiring call name
	release string // expected release name
}

// checkFunc analyzes one function body.  Closure bodies are analyzed as
// part of the enclosing function: positions still order correctly, and
// handles crossing a closure boundary escape anyway.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	acqs := findAcquisitions(pass, body)
	if len(acqs) == 0 {
		return
	}
	for _, a := range acqs {
		if a.handle == nil {
			pass.Reportf(a.pos, "result of %s is discarded: the %s reference can never be released", a.call, a.call)
			continue
		}
		if escapes(pass, body, a) {
			continue // ownership transferred; the new owner releases
		}
		deferred, releases := findReleases(pass, body, a)
		if deferred {
			continue
		}
		if len(releases) == 0 {
			pass.Reportf(a.pos, "%s acquired via %s is never released: missing %s.%s on every path", a.handle.Name(), a.call, a.handle.Name(), a.release)
			continue
		}
		checkReturns(pass, body, a, releases)
	}
}

// findAcquisitions collects tracked acquire sites: assignments whose RHS
// is a call to a paired acquisition.
func findAcquisitions(pass *analysis.Pass, body *ast.BlockStmt) []*acquisition {
	var acqs []*acquisition
	ast.Inspect(body, func(n ast.Node) bool {
		if n, ok := n.(*ast.AssignStmt); ok {
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				name := calleeName(call)
				rel, tracked := pairs[name]
				if !tracked {
					continue
				}
				a := &acquisition{pos: call.Pos(), call: name, release: rel}
				// h, err := Open(...) or h := c.Acquire(...).
				if len(n.Rhs) == 1 {
					if len(n.Lhs) >= 1 {
						a.handle = identObject(pass, n.Lhs[0])
					}
					if len(n.Lhs) == 2 {
						a.errObj = identObject(pass, n.Lhs[1])
					}
				} else if i < len(n.Lhs) {
					a.handle = identObject(pass, n.Lhs[i])
				}
				acqs = append(acqs, a)
			}
		}
		return true
	})
	return acqs
}

// escapes reports whether the handle's ownership leaves the function.
// An identifier bound to the handle escapes unless it sits in a
// non-owning position: the receiver of a selector (h.Close(), h.field)
// or the left side of an assignment.  Everything else — returned,
// passed as an argument, stored in a literal, aliased — transfers
// ownership.  Handles referenced inside non-deferred closures escape
// too (the closure may outlive the call); deferred cleanup closures are
// release sites, not escapes.
func escapes(pass *analysis.Pass, body *ast.BlockStmt, a *acquisition) bool {
	nonOwning := make(map[*ast.Ident]bool)
	var deferredLits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				nonOwning[id] = true
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					nonOwning[id] = true
				}
			}
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				deferredLits = append(deferredLits, lit)
			}
		}
		return true
	})
	isDeferred := func(lit *ast.FuncLit) bool {
		for _, d := range deferredLits {
			if d == lit {
				return true
			}
		}
		return false
	}
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && !isDeferred(lit) {
			if refersTo(pass, lit, a.handle) {
				esc = true
			}
			return false
		}
		if id, ok := n.(*ast.Ident); ok && !nonOwning[id] && pass.TypesInfo.ObjectOf(id) == a.handle {
			esc = true
		}
		return true
	})
	return esc
}

// findReleases locates release calls on the handle: deferred (covering
// every return) and inline (covering only returns after them).
func findReleases(pass *analysis.Pass, body *ast.BlockStmt, a *acquisition) (deferred bool, inline []token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if isRelease(pass, n.Call, a) {
				deferred = true
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && isRelease(pass, call, a) {
						deferred = true
					}
					return true
				})
			}
		case *ast.CallExpr:
			if isRelease(pass, n, a) {
				inline = append(inline, n.Pos())
			}
		}
		return true
	})
	return deferred, inline
}

// isRelease reports whether call is h.Release/Close/unpin() on the
// acquisition's handle.
func isRelease(pass *analysis.Pass, call *ast.CallExpr, a *acquisition) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !releaseNames[sel.Sel.Name] {
		return false
	}
	return identObject(pass, sel.X) == a.handle
}

// checkReturns flags returns after the acquisition that no inline
// release precedes, excepting returns inside the acquisition's own
// error guard.
func checkReturns(pass *analysis.Pass, body *ast.BlockStmt, a *acquisition, releases []token.Pos) {
	var errGuards []*ast.IfStmt
	if a.errObj != nil {
		ast.Inspect(body, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok && refersTo(pass, ifs.Cond, a.errObj) {
				errGuards = append(errGuards, ifs)
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() < a.pos {
			return true
		}
		for _, g := range errGuards {
			if g.Body.Pos() <= ret.Pos() && ret.Pos() <= g.Body.End() {
				return true
			}
		}
		for _, rel := range releases {
			if a.pos < rel && rel < ret.Pos() {
				return true
			}
		}
		pass.Reportf(ret.Pos(), "returns without releasing %s acquired via %s at %s: call %s.%s on this path", a.handle.Name(), a.call, pass.Fset.Position(a.pos), a.handle.Name(), a.release)
		return true
	})
}

// refersTo reports whether the expression tree mentions obj.
func refersTo(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// identObject resolves an identifier expression to its object ("_" and
// non-identifiers resolve to nil).
func identObject(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

// calleeName extracts the bare name of a call's callee.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}
