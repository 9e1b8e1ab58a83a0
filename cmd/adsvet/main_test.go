package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildTool builds the adsvet binary once per test run.
var buildTool = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "adsvet")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "adsvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &buildError{string(out), err}
	}
	return bin, nil
})

type buildError struct {
	out string
	err error
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + e.out }

// repoRoot returns the module root (two levels above cmd/adsvet).
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd))
}

// TestVettoolCleanTree runs the suite over the whole repository through
// the real `go vet -vettool` protocol: the tree must produce zero
// diagnostics, so any future invariant violation fails CI with the
// analyzer's message instead of a golden-test flake.
func TestVettoolCleanTree(t *testing.T) {
	bin, err := buildTool()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool reported findings on a tree that must be clean:\n%s\n%v", out, err)
	}
}

// TestStandaloneCleanTree checks the driver-based `adsvet ./...` mode
// agrees.
func TestStandaloneCleanTree(t *testing.T) {
	bin, err := buildTool()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("adsvet ./... reported findings on a tree that must be clean:\n%s\n%v", out, err)
	}
}

// TestVettoolSeededViolation seeds an unkeyed wire-header literal and an
// unreleased acquisition into a scratch module and demands adsvet fail
// with pointed diagnostics for both.
func TestVettoolSeededViolation(t *testing.T) {
	bin, err := buildTool()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "encode.go"), `package scratch

type fooHeader struct {
	Magic uint32
	Count uint32
}

func Encode() fooHeader {
	return fooHeader{1, 2}
}

type handle struct{}

func (h *handle) Release()  {}
func (h *handle) Nodes() int { return 0 }

type pool struct{}

func (p *pool) Acquire(name string) (*handle, error) { return nil, nil }

func Leak(p *pool) int {
	h, err := p.Acquire("x")
	if err != nil {
		return 0
	}
	return h.Nodes()
}
`)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool must fail on seeded violations, got success:\n%s", out)
	}
	for _, wantMsg := range []string{
		"unkeyed fields in wire-header literal fooHeader",
		"h acquired via Acquire is never released",
	} {
		if !strings.Contains(string(out), wantMsg) {
			t.Errorf("diagnostics missing %q:\n%s", wantMsg, out)
		}
	}
}

// TestHelpListsAnalyzers pins the suite roster surfaced by `adsvet help`.
func TestHelpListsAnalyzers(t *testing.T) {
	bin, err := buildTool()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "help").CombinedOutput()
	if err != nil {
		t.Fatalf("adsvet help: %v\n%s", err, out)
	}
	for _, name := range []string{"detorder", "refpair", "wireformat", "kindswitch", "lockheld", "deadsurface"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("help output missing analyzer %s:\n%s", name, out)
		}
	}
}

// TestRunStandaloneInProcess drives the driver-based mode without a
// subprocess: the repository must be clean, and a scratch module with a
// seeded violation must fail.
func TestRunStandaloneInProcess(t *testing.T) {
	if code := runStandalone(repoRoot(t), []string{"./..."}); code != 0 {
		t.Fatalf("runStandalone on the repository = %d, want 0", code)
	}
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "codec.go"), `package scratch

type wireHeader struct{ A, B uint16 }

func Make() wireHeader { return wireHeader{1, 2} }
`)
	if code := runStandalone(dir, []string{"./..."}); code != 1 {
		t.Fatalf("runStandalone on seeded violation = %d, want 1", code)
	}
	if code := runStandalone(dir, []string{"./does/not/exist"}); code != 1 {
		t.Fatalf("runStandalone on bad pattern = %d, want 1", code)
	}
}

// TestRunDeadSurface drives the whole-program report on a scratch module
// with the three serving binaries: their library has an exported function
// only its test uses, which is listed (exit 1); a package no binary links
// is not judged; the root package, which a binary links, is not judged
// either, though what its exported names use counts as used; and a module
// that does not type-check fails (exit 2).
func TestRunDeadSurface(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.24\n")
	for _, d := range []string{"lib", "tool", "cmd/adsserver", "cmd/adstool", "cmd/adsload"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, filepath.Join(dir, "lib", "lib.go"), `package lib

func Used() int { return 1 }

func ViaAPI() int { return 3 }

func OnlyTested() int { return 2 }
`)
	writeFile(t, filepath.Join(dir, "lib", "lib_test.go"), `package lib

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested() }
`)
	writeFile(t, filepath.Join(dir, "tool", "tool.go"), "package tool\n\nfunc NobodyCalls() {}\n")
	writeFile(t, filepath.Join(dir, "scratch.go"), `package scratch

import "scratch/lib"

func API() int { return lib.ViaAPI() }
`)
	writeFile(t, filepath.Join(dir, "cmd", "adsserver", "main.go"), `package main

import (
	_ "scratch"
	"scratch/lib"
)

func main() { lib.Used() }
`)
	for _, bin := range []string{"adstool", "adsload"} {
		writeFile(t, filepath.Join(dir, "cmd", bin, "main.go"), "package main\n\nfunc main() {}\n")
	}
	if code := runDeadSurface(dir); code != 1 {
		t.Fatalf("runDeadSurface with a test-only function = %d, want 1", code)
	}
	writeFile(t, filepath.Join(dir, "lib", "lib.go"), `package lib

func Used() int { return 1 }

func ViaAPI() int { return 3 }

// OnlyTested stays for its test.
//
//adsvet:ignore deadsurface the scratch module's kept name
func OnlyTested() int { return 2 }
`)
	if code := runDeadSurface(dir); code != 0 {
		t.Fatalf("runDeadSurface with the name kept = %d, want 0 (tool is not linked and the root package is the API, so neither is judged)", code)
	}
	writeFile(t, filepath.Join(dir, "tool", "broken.go"), "package tool\n\nvar Broken int = \"not an int\"\n")
	if code := runDeadSurface(dir); code != 2 {
		t.Fatalf("runDeadSurface on a module with a type error = %d, want 2", code)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
