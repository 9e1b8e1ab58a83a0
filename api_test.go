package adsketch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAPI pins package adsketch's exported surface — its exported
// package-level names, and the exported methods declared on its exported
// types — against testdata/api.txt, so a change that adds or removes a
// name shows as a diff of that file.  Rewrite it after an intended change
// with:
//
//	go test -run TestAPI -update .
func TestAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			names = append(names, exportedNames(decl)...)
		}
	}
	slices.Sort(names)
	got := strings.Join(names, "\n") + "\n"
	path := filepath.Join("testdata", "api.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the exported API differs from %s; if the change is intended, rewrite it with -update.\ngot:\n%s", path, got)
	}
}

// exportedNames lists the exported names one declaration adds: "func F",
// "type T", "const C", "var V", or "method T.M" for a method of an
// exported type.
func exportedNames(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			break
		}
		if d.Recv == nil {
			out = append(out, "func "+d.Name.Name)
			break
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
			out = append(out, "method "+id.Name+"."+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					out = append(out, "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, d.Tok.String()+" "+n.Name)
					}
				}
			}
		}
	}
	return out
}
