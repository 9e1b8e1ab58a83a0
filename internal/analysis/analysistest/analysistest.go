// Package analysistest runs analyzers over fixture packages under a
// testdata/src tree and checks reported diagnostics against `// want`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library only.
//
// A fixture file marks each expected diagnostic with a trailing comment
// on the offending line:
//
//	for k := range m { // want `iterates over a map`
//
// Each backquoted or double-quoted string after "want" is a regexp that
// must match one diagnostic reported on that line.  Lines without a
// want comment must produce no diagnostics.  A line whose own trailing
// comment cannot hold the want — an adsvet:ignore directive, which would
// take it for its reason — carries it in a block comment before it:
//
//	func Bare() {} /* want `needs a reason` */ //adsvet:ignore deadsurface
//
// Run checks per-package analyzers; RunProgram checks a whole-program
// analysis (deadsurface), whose findings depend on every package at once.
package analysistest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"adsketch/internal/analysis"
	"adsketch/internal/analysis/driver"
)

// fixtureImporter resolves imports first against fixture packages
// type-checked earlier in the same Run, then against standard-library
// export data.
type fixtureImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (i *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.local[path]; ok {
		return p, nil
	}
	return i.std.Import(path)
}

// wantRE finds a want comment; string literals are extracted separately.
var (
	wantRE = regexp.MustCompile(`^(?://|/\*)\s*want\b(.*?)(?:\*/)?$`)
	strRE  = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

// expectation is one want entry: a regexp expected to match a
// diagnostic on a specific file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run type-checks each fixture package at testdata/src/<path>, applies
// the analyzers through analysis.Check (so adsvet:ignore suppression is
// in effect, exactly as in production), and diffs the findings against
// the fixtures' want comments.  Fixture packages may import the
// standard library and fixture packages listed earlier in pkgPaths.
func Run(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, p := range load(t, testdata, pkgPaths) {
		diags, err := analysis.Check(p.Fset, p.Files, p.Pkg, p.TypesInfo, analyzers)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", p.PkgPath, err)
		}
		diff(t, p.Fset, p.Files, diags)
	}
}

// RunProgram type-checks the fixture packages as Run does, hands them all
// at once to check, and diffs its findings against the want comments of
// every fixture file.  Each package's _test.go files are type-checked with
// it; check decides what they count for.
func RunProgram(t *testing.T, testdata string, check func([]*driver.Package) []analysis.Diagnostic, pkgPaths ...string) {
	t.Helper()
	pkgs := load(t, testdata, pkgPaths)
	var files []*ast.File
	for _, p := range pkgs {
		files = append(files, p.Files...)
	}
	if len(pkgs) > 0 {
		diff(t, pkgs[0].Fset, files, check(pkgs))
	}
}

// load parses and type-checks the fixture packages, in order, in one
// FileSet.
func load(t *testing.T, testdata string, pkgPaths []string) []*driver.Package {
	t.Helper()
	fset := token.NewFileSet()
	local := make(map[string]*types.Package)
	var out []*driver.Package
	for _, pkgPath := range pkgPaths {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgPath))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("fixture %s: %v", pkgPath, err)
		}
		var files []*ast.File
		var names []string
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			names = append(names, filepath.Join(dir, e.Name()))
		}
		sort.Strings(names)
		var stdImports []string
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing %s: %v", name, err)
			}
			files = append(files, f)
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if _, ok := local[p]; !ok {
					stdImports = append(stdImports, p)
				}
			}
		}
		exports, err := driver.StdExports(stdImports)
		if err != nil {
			t.Fatalf("resolving standard-library imports for %s: %v", pkgPath, err)
		}
		imp := &fixtureImporter{
			local: local,
			std:   driver.NewImporter(fset, func(path string) (string, error) { return exports[path], nil }),
		}
		pkg, info, err := driver.TypeCheck(fset, pkgPath, files, imp)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", pkgPath, err)
		}
		local[pkgPath] = pkg
		out = append(out, &driver.Package{PkgPath: pkgPath, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info})
	}
	return out
}

// diff reports every diagnostic no want comment of the files expects, and
// every want comment no diagnostic met.
func diff(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		if !match(wants, posn.Filename, posn.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic [%s]: %s", posn, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants parses every want comment of the fixture files.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				lits := strRE.FindAllString(m[1], -1)
				if len(lits) == 0 {
					t.Fatalf("%s: want comment has no pattern strings", posn)
				}
				for _, lit := range lits {
					var pat string
					if strings.HasPrefix(lit, "`") {
						pat = strings.Trim(lit, "`")
					} else {
						var err error
						pat, err = strconv.Unquote(lit)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", posn, lit, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posn, pat, err)
					}
					wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, re: re})
				}
			}
		}
	}
	return wants
}

// match marks and reports the first unhit expectation covering the
// diagnostic's file, line, and message.
func match(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.hit && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.hit = true
			return true
		}
	}
	return false
}
