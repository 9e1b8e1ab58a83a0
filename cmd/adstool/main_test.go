package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adsketch"
)

func fileOf(t *testing.T, w io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteSketchFileReplacesAtomically: writing a sketch file over one an
// mmap'd reader is serving replaces it — the mapping keeps reading the old
// file byte for byte, a fresh open reads the new one — and a write that
// fails midway leaves the old file as it was and no temporary file.
func TestWriteSketchFileReplacesAtomically(t *testing.T) {
	g := adsketch.PreferentialAttachment(300, 3, 1)
	var sets [2]adsketch.SketchSet
	for i := range sets {
		set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	a, b := fileOf(t, sets[0]), fileOf(t, sets[1])
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ads")
	if _, err := writeSketchFile(path, sets[0].WriteTo); err != nil {
		t.Fatal(err)
	}
	mapped, err := adsketch.MmapSketchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Skip("no mmap on this platform")
	}
	_, err = writeSketchFile(path, func(w io.Writer) (int64, error) {
		n, _ := w.Write(b[:len(b)/2])
		return int64(n), errors.New("disk full")
	})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("a failing write: got %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, a) {
		t.Errorf("a failing write changed the file (%v)", err)
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Errorf("a failing write left %d files behind", len(names))
	}
	if _, err := writeSketchFile(path, sets[1].WriteTo); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileOf(t, mapped.Set()), a) {
		t.Error("the mapping no longer reads the file it mapped")
	}
	fresh, err := adsketch.OpenSketchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if !bytes.Equal(fileOf(t, fresh.Set()), b) {
		t.Error("a fresh open does not read the new file")
	}
}

// TestWriteSketchFileKeepsModeAndLink: the replacement keeps the mode of
// the file it replaces, and a write through a symlink replaces the file the
// link names, leaving the link in place.
func TestWriteSketchFileKeepsModeAndLink(t *testing.T) {
	set, err := adsketch.Build(adsketch.PreferentialAttachment(50, 2, 1), adsketch.WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	real, link := filepath.Join(dir, "real.ads"), filepath.Join(dir, "link.ads")
	if err := os.WriteFile(real, nil, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(real, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("real.ads", link); err != nil {
		t.Skip("no symlinks here:", err)
	}
	if _, err := writeSketchFile(link, set.WriteTo); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Lstat(link); err != nil || st.Mode()&os.ModeSymlink == 0 {
		t.Errorf("the link was replaced (%v)", err)
	}
	st, err := os.Stat(real)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o640 {
		t.Errorf("mode %v, want 0640", st.Mode().Perm())
	}
	if data, _ := os.ReadFile(real); !bytes.Equal(data, fileOf(t, set)) {
		t.Error("the linked file does not hold the written set")
	}
}

// TestConvertSeed: convert reads a weighted or approximate file that stores
// its ranks under -seed, and refuses it without one, naming the flag; a
// -seed that contradicts the seed a file records is an error for every
// file, and one that matches is accepted.  A refused convert writes
// nothing.
func TestConvertSeed(t *testing.T) {
	dir := t.TempDir()
	fixture := func(name string) string { return filepath.Join("..", "..", "internal", "core", "testdata", name) }
	out := filepath.Join(dir, "out.ads")
	convert := func(args ...string) ([]byte, error) {
		t.Helper()
		os.Remove(out)
		err := runConvert(append([]string{"-out", out}, args...))
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
		{[]string{"-sketches", fixture("weighted_v2_k4.ads")}, nil, "adstool convert -seed"},
		{[]string{"-sketches", fixture("approx_v2_k4.ads")}, nil, "adstool convert -seed"},
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
