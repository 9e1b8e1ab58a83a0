// Package detorder flags nondeterministic iteration and time/randomness
// sources in determinism-critical packages.
//
// The HIP/ADS correctness claims (estimator output bit-for-bit stable
// across refactors, incremental ingest byte-equal to a full Build) only
// hold when the (distance, rank) processing order is canonical.  PR 3
// learned this the hard way: map-iteration order silently made seeded
// graph.PreferentialAttachment nondeterministic, and a flaky golden
// fixture caught it instead of tooling.  In internal/core,
// internal/ingest, internal/graph, internal/cluster, internal/distbuild
// and internal/legacy (whose output adsconvert writes, and which must be
// byte-identical run to run) this analyzer flags:
//
//   - `range` over a map whose body appends to an outer slice without a
//     subsequent sort of that slice in the same function, writes output
//     (Write*/Fprint*/Print*/Encode), feeds a frontier (Push/Enqueue),
//     or sends on a channel — all of which leak map order into results;
//   - time.Now — wall-clock values embedded in deterministic paths;
//   - package-level math/rand and math/rand/v2 functions, which draw
//     from the shared unseeded source; use rand.New(rand.NewSource(seed)).
package detorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"adsketch/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc: "flag map-order-dependent iteration, time.Now, and unseeded math/rand in determinism-critical " +
		"packages (internal/core, internal/ingest, internal/graph, internal/cluster, internal/distbuild, internal/legacy)",
	Run: run,
}

// scope lists the determinism-critical package-path suffixes.
var scope = []string{"internal/core", "internal/ingest", "internal/graph", "internal/cluster", "internal/distbuild", "internal/legacy"}

// orderSinks are call names inside a map range whose effects are ordered:
// output writers, printers, encoders, and frontier feeders.
var orderSinks = map[string]string{
	"Write":       "writes output",
	"WriteString": "writes output",
	"WriteByte":   "writes output",
	"WriteRune":   "writes output",
	"Fprint":      "writes output",
	"Fprintf":     "writes output",
	"Fprintln":    "writes output",
	"Print":       "writes output",
	"Printf":      "writes output",
	"Println":     "writes output",
	"Encode":      "writes output",
	"Push":        "feeds a frontier",
	"Enqueue":     "feeds a frontier",
}

// seededConstructors are math/rand functions that do not touch the
// global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), scope...) {
		return nil
	}
	checkGlobals(pass)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapRanges(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkGlobals flags every use of time.Now and of package-level
// math/rand functions backed by the shared unseeded source.
func checkGlobals(pass *analysis.Pass) {
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || pass.InTestFile(id.Pos()) {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue // methods (e.g. on *rand.Rand) are seeded by construction
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" {
				pass.Reportf(id.Pos(), "time.Now in determinism-critical package %s: outputs must not depend on wall-clock time", pass.Pkg.Path())
			}
		case "math/rand", "math/rand/v2":
			if !seededConstructors[fn.Name()] {
				pass.Reportf(id.Pos(), "%s.%s draws from the global unseeded source; use rand.New(rand.NewSource(seed)) so runs are reproducible", fn.Pkg().Name(), fn.Name())
			}
		}
	}
}

// checkMapRanges walks one function body flagging map ranges whose
// bodies leak iteration order.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv := pass.TypesInfo.TypeOf(rs.X)
		if tv == nil {
			return true
		}
		if _, isMap := tv.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapBody(pass, body, rs)
		return true
	})
}

// checkMapBody inspects the body of one map range.
func checkMapBody(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	appendTargets := make(map[types.Object]token.Pos)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "map iteration order reaches a channel send; iterate sorted keys instead")
		case *ast.CallExpr:
			if what, ok := orderSinks[calleeName(n)]; ok {
				pass.Reportf(n.Pos(), "map iteration order %s via %s; iterate sorted keys instead", what, calleeName(n))
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || calleeName(call) != "append" || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				// Only appends to slices declared outside the loop body
				// leak order out of the loop.
				if obj != nil && !(rs.Body.Pos() <= obj.Pos() && obj.Pos() <= rs.Body.End()) {
					appendTargets[obj] = n.Pos()
				}
			}
		}
		return true
	})
	for obj, pos := range appendTargets {
		if !sortedAfter(pass, fnBody, rs.End(), obj) {
			pass.Reportf(pos, "appends to %s in map-iteration order without sorting it afterwards; sort before use (collect-then-sort) to keep output canonical", obj.Name())
		}
	}
}

// sortedAfter reports whether obj is passed to a sort.*/slices.* call
// (or its own Sort method) after pos within the function body — the
// collect-then-sort idiom that makes a map range deterministic.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// obj.Sort(...) method form.
		if id, ok := sel.X.(*ast.Ident); ok && sel.Sel.Name == "Sort" && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
			return false
		}
		// sort.Xxx(obj, ...) / slices.SortXxx(obj, ...) package form.
		if fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func); ok && fn.Pkg() != nil {
			if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
				for _, arg := range call.Args {
					if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
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
