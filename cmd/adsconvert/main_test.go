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
	convert := converter(t, filepath.Join(dir, "out.ads"))
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
	uniform, err := convert("-sketches", fixture("uniform_v2_k8.ads"))
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
		{[]string{"-sketches", fixture("uniform_v2_k8.ads"), "-seed", "42"}, uniform, ""},
		{[]string{"-sketches", fixture("uniform_v2_k8.ads"), "-seed", "7"}, nil, "records seed 42"},
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

// TestConvertRefusesOtherFlavors: a k-mins or k-partition file — the four
// committed k-mins files of retired layouts, and current-layout files of
// both flavors the last release to build them wrote — is refused, naming
// its flavor, and nothing is written.
func TestConvertRefusesOtherFlavors(t *testing.T) {
	convert := converter(t, filepath.Join(t.TempDir(), "out.ads"))
	for path, flavor := range map[string]string{
		fixture("kmins_base2_v2_k4.ads"):                              "k-mins",
		fixture("kmins_base2_v3dist_k4.ads"):                          "k-mins",
		fixture("kmins_base2_v3step_k4.ads"):                          "k-mins",
		fixture("kmins_base2_v3pack_k4.ads"):                          "k-mins",
		filepath.Join("..", "..", "testdata", "kmins_v3_k4.ads"):      "k-mins",
		filepath.Join("..", "..", "testdata", "kpartition_v3_k4.ads"): "k-partition",
	} {
		if _, err := convert("-sketches", path); err == nil || !strings.Contains(err.Error(), flavor+" sketches") {
			t.Errorf("convert %s: %v, want a refusal naming %s", filepath.Base(path), err, flavor)
		}
	}
}

// fixture returns the path of a committed file of an earlier release.
func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "legacy", "testdata", name)
}

// converter returns a run of adsconvert writing to out: the bytes it
// wrote, or its error — in which case it must have written nothing.
func converter(t *testing.T, out string) func(args ...string) ([]byte, error) {
	return func(args ...string) ([]byte, error) {
		t.Helper()
		os.Remove(out)
		err := run(append([]string{"-out", out}, args...))
		data, rerr := os.ReadFile(out)
		if err != nil && rerr == nil {
			t.Errorf("convert %v: refused (%v), but wrote %s", args, err, out)
		}
		return data, err
	}
}
