package detorder

import (
	"testing"

	"adsketch/internal/analysis"
	"adsketch/internal/analysis/analysistest"
)

func TestDetorder(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{Analyzer},
		"internal/core",
		"internal/distbuild",
		"internal/legacy",
		"example/plain",
	)
}
