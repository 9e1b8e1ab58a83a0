package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConvertSeed: adsconvert reads a weighted or approximate file that
// stores its ranks under -seed, and refuses it without one, naming the
// flag; a -seed that contradicts the seed a file records is an error for
// every file, and one that matches is accepted.  A refused convert writes
// nothing.
func TestConvertSeed(t *testing.T) {
	dir := t.TempDir()
	fixture := func(name string) string { return filepath.Join("..", "..", "internal", "legacy", "testdata", name) }
	out := filepath.Join(dir, "out.ads")
	convert := func(args ...string) ([]byte, error) {
		t.Helper()
		os.Remove(out)
		err := run(append([]string{"-out", out}, args...))
		data, rerr := os.ReadFile(out)
		if err != nil && rerr == nil {
			t.Errorf("convert %v: refused (%v), but wrote %s", args, err, out)
		}
		return data, err
	}
	// The newest older layout needs no seed; its conversion is the current
	// file of the same set.
	weighted, err := convert("-sketches", fixture("weighted_v3pack_k4.ads"))
	if err != nil {
		t.Fatal(err)
	}
	current := filepath.Join(dir, "weighted.ads")
	if err := os.WriteFile(current, weighted, 0o644); err != nil {
		t.Fatal(err)
	}
	kmins, err := convert("-sketches", fixture("kmins_base2_v3pack_k4.ads"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args    []string
		want    []byte // nil: refused, with an error naming refusal
		refusal string
	}{
		{[]string{"-sketches", current, "-seed", "42"}, weighted, ""},
		{[]string{"-sketches", current, "-seed", "7"}, nil, "records seed 42"},
		{[]string{"-sketches", fixture("weighted_v3pack_k4.ads"), "-seed", "7"}, nil, "records seed 42"},
		{[]string{"-sketches", fixture("kmins_base2_v2_k4.ads"), "-seed", "42"}, kmins, ""},
		{[]string{"-sketches", fixture("kmins_base2_v2_k4.ads"), "-seed", "7"}, nil, "records seed 42"},
		{[]string{"-sketches", fixture("weighted_v2_k4.ads")}, nil, "adsconvert -seed"},
		{[]string{"-sketches", fixture("approx_v2_k4.ads")}, nil, "adsconvert -seed"},
		{[]string{"-sketches", fixture("weighted_v2_k4.ads"), "-seed", "42"}, weighted, ""},
		{[]string{"-sketches", fixture("weighted_v2_k4.ads"), "-seed", "43"}, nil, "(seed 43)"},
	} {
		got, err := convert(tc.args...)
		switch {
		case tc.want == nil && (err == nil || !strings.Contains(err.Error(), tc.refusal)):
			t.Errorf("convert %v: %v, want a refusal naming %q", tc.args, err, tc.refusal)
		case tc.want != nil && (err != nil || !bytes.Equal(got, tc.want)):
			t.Errorf("convert %v: %v, or not the file of the same set", tc.args, err)
		}
	}
	if _, err := convert("-sketches", fixture("approx_v2_k4.ads"), "-seed", "42"); err != nil {
		t.Errorf("approximate v2 under its seed: %v", err)
	}
}
