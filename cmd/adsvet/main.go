// Command adsvet is the repository's custom vet suite: five per-package
// analyzers (detorder, refpair, wireformat, kindswitch, lockheld)
// encoding the invariants the HIP/ADS correctness and serving claims rest
// on, and one whole-program report (deadsurface: the exported surface of
// the serving binaries' packages that only tests use).  See the package
// docs under internal/analysis/... for what each enforces and README.md
// for the suppression convention.
//
// It runs three ways:
//
//	adsvet [packages]          standalone: load, type-check, analyze
//	go vet -vettool=adsvet ... as a vet tool, speaking the unitchecker
//	                           protocol (-V=full, -flags, <pkg>.cfg)
//	adsvet deadsurface         the whole-program report over the module's
//	                           packages, judging those the serving
//	                           binaries link; exit 1 when it finds any
//
// The vet-tool form is what Makefile and CI use: cmd/go hands the tool
// pre-planned package configs with export data, so the whole tree is
// analyzed with build-cache sharing.  deadsurface needs every package at
// once, so it runs standalone.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"adsketch/internal/analysis"
	"adsketch/internal/analysis/deadsurface"
	"adsketch/internal/analysis/detorder"
	"adsketch/internal/analysis/driver"
	"adsketch/internal/analysis/kindswitch"
	"adsketch/internal/analysis/lockheld"
	"adsketch/internal/analysis/refpair"
	"adsketch/internal/analysis/wireformat"
)

// suite is the full analyzer set, in reporting-name order.
var suite = []*analysis.Analyzer{
	detorder.Analyzer,
	kindswitch.Analyzer,
	lockheld.Analyzer,
	refpair.Analyzer,
	wireformat.Analyzer,
}

func main() {
	args := os.Args[1:]

	// Protocol probes from cmd/go come first and alone.
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		switch {
		case args[0] == "-V=full":
			printVersion()
			return
		case args[0] == "-flags":
			fmt.Println("[]")
			return
		default:
			// Tolerate pass-through vet flags we define none of.
			args = args[1:]
		}
	}

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnitchecker(args[0]))
	}
	if len(args) > 0 && args[0] == "deadsurface" {
		if len(args) > 1 {
			// A narrower load would hide the uses in the packages left out.
			fmt.Fprintln(os.Stderr, "adsvet: deadsurface takes no packages; it always loads ./...")
			os.Exit(2)
		}
		os.Exit(runDeadSurface(""))
	}
	if len(args) == 1 && args[0] == "help" {
		printHelp()
		return
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone("", args))
}

// printVersion emits the tool identity line cmd/go hashes into its
// action IDs: same binary, same ID, cached vet results.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("adsvet version devel comments-go-here buildID=%02x\n", h.Sum(nil))
}

func printHelp() {
	fmt.Println("adsvet: custom static-analysis suite for this repository")
	fmt.Println()
	for _, a := range suite {
		fmt.Printf("  %-11s %s\n", a.Name, a.Doc)
	}
	fmt.Printf("  %-11s %s\n", deadsurface.Name, deadsurface.Doc)
	fmt.Println()
	fmt.Println("suppress a deliberate exception with: //adsvet:ignore <analyzer> <reason>")
}

// vetConfig is the package configuration cmd/go writes for a vet tool
// (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnitchecker analyzes one package from a cmd/go-supplied config.
func runUnitchecker(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "adsvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The suite uses no cross-package facts, but cmd/go requires the
	// facts file to exist before it trusts the run.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("adsvet: no facts\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		files = append(files, f)
	}
	imp := driver.NewImporter(fset, func(path string) (string, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		return cfg.PackageFile[path], nil
	})
	pkg, info, err := driver.TypeCheck(fset, cfg.ImportPath, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "adsvet: %v\n", err)
		return 1
	}
	diags, err := analysis.Check(fset, files, pkg, info, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adsvet: %v\n", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	printDiagnostics(fset, diags)
	return 2
}

// runStandalone loads packages through the driver (rooted at dir; "" =
// current directory) and analyzes them.
func runStandalone(dir string, patterns []string) int {
	pkgs, err := driver.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adsvet: %v\n", err)
		return 1
	}
	exit := 0
	for _, p := range pkgs {
		diags, err := analysis.Check(p.Fset, p.Files, p.Pkg, p.TypesInfo, suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adsvet: %v\n", err)
			return 1
		}
		if len(diags) > 0 {
			printDiagnostics(p.Fset, diags)
			exit = 1
		}
	}
	return exit
}

func printDiagnostics(fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// servingBins are the binaries whose packages deadsurface judges: what
// `make loc` counts as the serving closure.
var servingBins = []string{"./cmd/adsserver", "./cmd/adstool", "./cmd/adsload"}

// outOfScope are packages the serving binaries must not link, judged
// never: the paper lab and the decoders and writers of retired layouts.
var outOfScope = []string{"lab", "internal/simulate", "internal/stats", "internal/legacy", "internal/retired"}

// runDeadSurface loads every package of the module (rooted at dir; "" =
// current directory), lists the exported identifiers of the serving
// binaries' packages but the root one that no non-test code uses, and
// returns 1 when there are any, 2 when loading fails.
func runDeadSurface(dir string) int {
	pkgs, err := driver.Load(dir, "./...")
	if err != nil {
		fmt.Fprintf(os.Stderr, "adsvet: %v\n", err)
		return 2
	}
	deps, err := driver.Deps(dir, servingBins...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adsvet: %v\n", err)
		return 2
	}
	scope := make(map[string]bool, len(deps))
	for _, p := range deps {
		scope[p] = !analysis.PathMatches(p, outOfScope...)
	}
	// The root package's exported names are the public API, which
	// testdata/api.txt pins: judged never, though its references count.
	root, _ := filepath.Abs(dir)
	for _, p := range pkgs {
		if len(p.Files) > 0 && filepath.Dir(p.Fset.Position(p.Files[0].Pos()).Filename) == root {
			scope[p.PkgPath] = false
		}
	}
	diags := deadsurface.Check(pkgs, func(path string) bool { return scope[path] })
	for _, d := range diags {
		posn := pkgs[0].Fset.Position(d.Pos)
		if rel, err := filepath.Rel(root, posn.Filename); err == nil {
			posn.Filename = rel
		}
		fmt.Printf("%s: %s [%s]\n", posn, d.Message, d.Analyzer)
	}
	fmt.Printf("deadsurface: %d finding(s) in %d serving package(s)\n", len(diags), len(deps))
	if len(diags) > 0 {
		return 1
	}
	return 0
}
