package deadsurface

import (
	"testing"

	"adsketch/internal/analysis"
	"adsketch/internal/analysis/analysistest"
	"adsketch/internal/analysis/driver"
)

// TestDeadSurface runs the walk over a library, the program that uses it
// and a package out of scope.
func TestDeadSurface(t *testing.T) {
	analysistest.RunProgram(t, "testdata", func(pkgs []*driver.Package) []analysis.Diagnostic {
		return Check(pkgs, func(path string) bool { return path != "example/outside" })
	}, "example/lib", "example/app", "example/outside")
}
