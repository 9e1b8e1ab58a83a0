// Package wireformat guards the on-disk and on-wire byte layout.
//
// The v3 codec rewrite (PR 4) replaced reflection-based encoding/binary
// calls with explicit little-endian column writes for a 5.6× decode win,
// and every sketch file since is byte-addressed by that layout.  In
// codec/serialization/protocol files this analyzer flags:
//
//   - binary.Write / binary.Read — reflection-based, slow, and layout
//     depends on struct declaration order rather than explicit offsets;
//   - binary.BigEndian / binary.NativeEndian — the wire format is
//     little-endian by definition; NativeEndian silently flips on
//     big-endian hosts (a deliberate byte-order probe suppresses with
//     //adsvet:ignore wireformat <reason>);
//   - unkeyed (positional) literals of wire-header structs (type names
//     ending in Hdr/Header) — inserting a header field would silently
//     shift every later field into the wrong slot;
//   - raw column writes without a byte-order guard: a call to one of the
//     package's raw byte views of a typed slice (a function built on
//     unsafe.Slice((*byte)(unsafe.Pointer(..)), ..) — f64Bytes for the
//     dictionary of distances, the raw steps and β, u64Bytes for the
//     step-bit words and the bit-packed node IDs, offsets and step codes)
//     outside the then-branch of an `if` on the little-endian host
//     probe.  Memory is the wire's bytes only on a little-endian host;
//     every column — the words of a bit vector or of a packed column
//     included, whether the frame's own or a shifted copy made for the
//     write — goes through binary.LittleEndian otherwise.
//
// Scope is per file, judged by filename keywords (codec, serialize,
// protocol, wire, encode, decode) — except in a package whose import
// path ends in internal/wire, where every file is in scope: that
// package is the binary protocol itself.
package wireformat

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"

	"adsketch/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wireformat",
	Doc: "in codec/serialize/protocol files, forbid reflection-based binary.Write/Read and " +
		"non-little-endian byte orders, and require keyed wire-header struct literals",
	Run: run,
}

// fileInScope reports whether a file participates in wire encoding,
// judged by its name.
func fileInScope(filename string) bool {
	base := strings.ToLower(filepath.Base(filename))
	for _, kw := range []string{"codec", "serialize", "protocol", "wire", "encode", "decode"} {
		if strings.Contains(base, kw) {
			return true
		}
	}
	return false
}

// pkgInScope reports whether every file of the package is wire-format
// code regardless of filename: internal/wire is the binary protocol
// itself, so a helper split out under an innocuous name (pool.go,
// buffers.go) must not silently drop out of the invariant.
func pkgInScope(pkg *types.Package) bool {
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/wire")
}

// headerTypeRE matches wire-header struct type names.
var headerTypeRE = regexp.MustCompile(`(?i)(hdr|header)$`)

// hostProbeRE matches the identifier of a little-endian host probe.
var hostProbeRE = regexp.MustCompile(`(?i)little_?endian`)

func run(pass *analysis.Pass) error {
	wholePkg := pkgInScope(pass.Pkg)
	views := rawByteViews(pass)
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if (!wholePkg && !fileInScope(filename)) || pass.InTestFile(f.Pos()) {
			continue
		}
		checkFile(pass, f, views)
	}
	return nil
}

// rawByteViews returns the package's functions that hand back the memory
// of a typed slice as bytes: those whose body holds
// unsafe.Slice((*byte)(unsafe.Pointer(..)), ..).  They may live in any
// file; what is checked is where wire-format files call them.
func rawByteViews(pass *analysis.Pass) map[types.Object]bool {
	views := map[types.Object]bool{}
	isUnsafe := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return false
		}
		pkg, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
		return ok && pkg.Imported().Path() == "unsafe"
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 || !isUnsafe(call.Fun, "Slice") {
					return true
				}
				// (*byte)(unsafe.Pointer(..))
				conv, ok := call.Args[0].(*ast.CallExpr)
				if !ok || len(conv.Args) != 1 {
					return true
				}
				ptr, ok := pass.TypesInfo.TypeOf(conv.Fun).(*types.Pointer)
				if !ok {
					return true
				}
				if b, ok := ptr.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
					if inner, ok := conv.Args[0].(*ast.CallExpr); ok && isUnsafe(inner.Fun, "Pointer") {
						views[pass.TypesInfo.ObjectOf(fn.Name)] = true
					}
				}
				return true
			})
		}
	}
	return views
}

func checkFile(pass *analysis.Pass, f *ast.File, views map[types.Object]bool) {
	visit(pass, f, views, false)
}

// namesHostProbe reports whether a condition mentions the little-endian
// host probe.
func namesHostProbe(cond ast.Expr) bool {
	probe := false
	ast.Inspect(cond, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && hostProbeRE.MatchString(id.Name) {
			probe = true
		}
		return !probe
	})
	return probe
}

// visit checks the tree under root; guarded says it sits in the
// then-branch of an `if` on the host probe.
func visit(pass *analysis.Pass, root ast.Node, views map[types.Object]bool, guarded bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if !guarded && namesHostProbe(n.Cond) {
				if n.Init != nil {
					visit(pass, n.Init, views, false)
				}
				visit(pass, n.Cond, views, false)
				visit(pass, n.Body, views, true)
				if n.Else != nil {
					visit(pass, n.Else, views, false)
				}
				return false
			}
		case *ast.CallExpr:
			if id := calleeIdent(n); id != nil && views[pass.TypesInfo.ObjectOf(id)] && !guarded {
				pass.Reportf(n.Pos(), "raw column write %s without a byte-order guard: memory is the wire's bytes only on a little-endian host — call it under `if` on the little-endian probe and encode through binary.LittleEndian otherwise", id.Name)
			}
		case *ast.SelectorExpr:
			obj := pass.TypesInfo.ObjectOf(n.Sel)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "encoding/binary" {
				return true
			}
			switch obj.Name() {
			case "Write", "Read":
				pass.Reportf(n.Pos(), "reflection-based binary.%s in wire-format code: encode fields explicitly with binary.LittleEndian (the v3 codec idiom)", obj.Name())
			case "BigEndian", "NativeEndian":
				pass.Reportf(n.Pos(), "binary.%s in wire-format code: the sketch wire format is explicitly little-endian; use binary.LittleEndian", obj.Name())
			}
		case *ast.CompositeLit:
			checkHeaderLit(pass, n)
		}
		return true
	})
}

// calleeIdent returns the identifier a call names, if it names one.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn
	case *ast.SelectorExpr:
		return fn.Sel
	}
	return nil
}

// checkHeaderLit flags positional fields in a wire-header literal.
func checkHeaderLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	if len(lit.Elts) == 0 {
		return
	}
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok || !headerTypeRE.MatchString(named.Obj().Name()) {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	for _, e := range lit.Elts {
		if _, ok := e.(*ast.KeyValueExpr); !ok {
			pass.Reportf(lit.Pos(), "unkeyed fields in wire-header literal %s: positional initialization silently misassigns fields when the header layout changes — use field: value", named.Obj().Name())
			return
		}
	}
}
