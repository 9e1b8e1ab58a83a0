// Package driver loads and type-checks packages for the adsvet analysis
// suite without golang.org/x/tools: package discovery and export data
// come from `go list -export -deps -json` (fully offline — the module
// and the standard library compile from the local toolchain), syntax
// from go/parser, and types from go/types with a gc export-data
// importer.  cmd/adsvet uses it for standalone `adsvet ./...` runs, and
// analysistest uses its importer to type-check fixture packages.
package driver

import (
	"bytes"
	"encoding/json"
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
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the driver needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` on the patterns and decodes
// the package stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// NewImporter returns a types importer that resolves every import
// through the resolve function: import path in, gc export-data file
// path out.  "unsafe" is handled by the importer itself.
func NewImporter(fset *token.FileSet, resolve func(path string) (string, error)) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, err := resolve(path)
		if err != nil {
			return nil, err
		}
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Load lists, parses, and type-checks the packages matching the patterns
// (relative to dir; "" = current directory), returning the matched
// packages — dependencies are consumed as export data only.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	var roots []*listedPackage
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		roots = append(roots, p)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })

	var out []*Package
	for _, p := range roots {
		importMap := p.ImportMap
		imp := NewImporter(fset, func(path string) (string, error) {
			if mapped, ok := importMap[path]; ok {
				path = mapped
			}
			return exports[path], nil
		})
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := TypeCheck(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		out = append(out, &Package{PkgPath: p.ImportPath, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info})
	}
	return out, nil
}

// Deps returns the import paths of the packages outside the standard
// library that the patterns (relative to dir; "" = current directory)
// match or depend on.
func Deps(dir string, patterns ...string) ([]string, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, p := range listed {
		if !p.Standard {
			out = append(out, p.ImportPath)
		}
	}
	return out, nil
}

// TypeCheck type-checks one package's parsed files with the given
// importer, returning the package and a fully populated types.Info.
func TypeCheck(fset *token.FileSet, pkgPath string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// stdExports caches export-data locations for standard-library packages,
// shared across every analysistest fixture in the process.
var stdExports struct {
	sync.Mutex
	files map[string]string // import path -> export file
}

// StdExports returns an import-path -> export-file map covering the
// given standard-library packages and all their dependencies, building
// export data through the go command (cached across calls).
func StdExports(paths []string) (map[string]string, error) {
	stdExports.Lock()
	defer stdExports.Unlock()
	if stdExports.files == nil {
		stdExports.files = make(map[string]string)
	}
	var missing []string
	for _, p := range paths {
		if _, ok := stdExports.files[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		listed, err := goList("", missing)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				stdExports.files[p.ImportPath] = p.Export
			}
		}
	}
	out := make(map[string]string, len(stdExports.files))
	for k, v := range stdExports.files {
		out[k] = v
	}
	return out, nil
}
