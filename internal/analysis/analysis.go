// Package analysis is a self-contained static-analysis framework for
// this repository's custom vet suite (cmd/adsvet).  It mirrors the shape
// of golang.org/x/tools/go/analysis — an Analyzer owns a Run function
// over a Pass carrying the parsed files and full type information — but
// is built entirely on the standard library (go/ast, go/types,
// go/importer), because the module deliberately carries no external
// dependencies.
//
// The analyzers under internal/analysis/... encode invariants this
// reproduction's correctness claims rest on (deterministic iteration
// order, paired resource acquire/release, explicit little-endian wire
// encoding, exhaustive enum dispatch, mutex-guarded field access).  They
// run over every PR via `go vet -vettool` (see cmd/adsvet) and are
// tested with the analysistest subpackage against testdata fixtures.
// deadsurface, which needs every package at once, is not an Analyzer: it
// runs standalone and filters its findings through Suppress.
//
// # Suppression
//
// A finding that is a deliberate exception is silenced with a directive
// comment on the flagged line, or alone on the line directly above:
//
//	//adsvet:ignore <analyzer> <reason>
//
// The reason is mandatory: a bare directive is itself reported, so every
// suppression in the tree documents why the invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// adsvet:ignore directives.
	Name string
	// Doc is the one-paragraph description printed by `adsvet help`.
	Doc string
	// Run applies the check to one package and reports findings through
	// pass.Report / pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and types through an Analyzer.Run.
type Pass struct {
	// Fset maps token positions of Files to file/line/column.
	Fset *token.FileSet
	// Files holds the package's parsed files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info

	analyzer *Analyzer
	report   func(Diagnostic)
}

// Diagnostic is one finding, positioned inside Pass.Fset.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Report emits a finding.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.analyzer.Name
	}
	p.report(d)
}

// Reportf emits a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file.  The suite's
// invariants target production code; tests exercise deliberately odd
// patterns (corrupted headers, racing closers) and are exempt.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PathMatches reports whether a package import path is, or ends with, one
// of the given patterns (each pattern matching either the whole path or a
// "/"-separated suffix).  Analyzers use it to scope themselves to the
// determinism- or wire-critical packages while staying testable against
// fixture packages loaded under the same relative paths.
func PathMatches(pkgPath string, patterns ...string) bool {
	for _, pat := range patterns {
		if pkgPath == pat || strings.HasSuffix(pkgPath, "/"+pat) {
			return true
		}
	}
	return false
}

// ignoreRE matches a suppression directive.  Capture 1 is the analyzer
// name (or "all"); capture 2 is the reason, which must be non-empty.
var ignoreRE = regexp.MustCompile(`^//adsvet:ignore\s+(\S+)[ \t]*(.*)$`)

// directive is one parsed adsvet:ignore comment.
type directive struct {
	line     int
	analyzer string
	reason   string
	pos      token.Pos
}

// collectDirectives parses every adsvet:ignore comment of a file.
func collectDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			out = append(out, directive{
				line:     fset.Position(c.Pos()).Line,
				analyzer: m[1],
				reason:   strings.TrimSpace(m[2]),
				pos:      c.Pos(),
			})
		}
	}
	return out
}

// Check runs the analyzers over one type-checked package and returns the
// surviving diagnostics sorted by position: suppressed findings are
// dropped, and malformed suppressions (no reason) are reported as
// findings of the pseudo-analyzer "adsvet".
func Check(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			analyzer:  a,
			report:    func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}

	return Suppress(fset, files, raw), nil
}

// Suppress applies the files' adsvet:ignore directives to raw findings
// of those files and returns the survivors sorted by position, plus a
// finding of the pseudo-analyzer "adsvet" for every directive without a
// reason.  Check uses it per package; a whole-program check calls it once
// per package it reports on.
func Suppress(fset *token.FileSet, files []*ast.File, raw []Diagnostic) []Diagnostic {
	var dirs []directive
	for _, f := range files {
		dirs = append(dirs, collectDirectives(fset, f)...)
	}
	var out []Diagnostic
	for _, dir := range dirs {
		if dir.reason == "" {
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "adsvet",
				Message:  fmt.Sprintf("adsvet:ignore %s needs a reason: every suppression must say why the invariant does not apply", dir.analyzer),
			})
		}
	}
	for _, d := range raw {
		if !suppressed(fset, d, dirs) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// suppressed reports whether a directive with a reason covers the
// diagnostic: same file, matching analyzer (or "all"), on the flagged
// line or the line directly above it.
func suppressed(fset *token.FileSet, d Diagnostic, dirs []directive) bool {
	posn := fset.Position(d.Pos)
	for _, dir := range dirs {
		if dir.reason == "" {
			continue
		}
		if dir.analyzer != d.Analyzer && dir.analyzer != "all" {
			continue
		}
		if fset.Position(dir.pos).Filename != posn.Filename {
			continue
		}
		if dir.line == posn.Line || dir.line == posn.Line-1 {
			return true
		}
	}
	return false
}
