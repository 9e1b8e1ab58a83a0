package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.tsv")

// goldenRuns are every subcommand at parameters small enough to finish
// in milliseconds; their concatenated output is pinned byte for byte.
var goldenRuns = []string{
	"fig2 -k 5 -runs 20 -maxn 200",
	"fig3 -k 16 -runs 20 -maxn 2000",
	"size -runs 5",
	"baseb -runs 5 -n 2000",
	"hllconst -runs 5 -n 2000",
	"anf -n 200 -k 16",
	"graphq -n 300 -k 8 -sample 50",
}

func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	for _, args := range goldenRuns {
		out.WriteString("== figures " + args + "\n")
		if err := run(strings.Fields(args), &out); err != nil {
			t.Fatalf("figures %s: %v", args, err)
		}
	}
	path := filepath.Join("testdata", "golden.tsv")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s (rerun with -update only for an intended change):\n%s", path, out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"fig9"}} {
		if err := run(args, new(bytes.Buffer)); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want the usage error", args, err)
		}
	}
	if err := run([]string{"fig2", "-metric", "mse"}, new(bytes.Buffer)); err == nil {
		t.Error("unknown metric accepted")
	}
}
