package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adsketch"
	"adsketch/internal/atomicfile"
	"adsketch/lab"
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
	if _, err := atomicfile.Write(path, sets[0].WriteTo); err != nil {
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
	_, err = atomicfile.Write(path, func(w io.Writer) (int64, error) {
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
	if _, err := atomicfile.Write(path, sets[1].WriteTo); err != nil {
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
	if _, err := atomicfile.Write(link, set.WriteTo); err != nil {
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

// infoLines runs `adstool info path` and returns its "name  value" lines
// keyed by name.
func infoLines(t *testing.T, path string) map[string]string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = runInfo([]string{path})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatalf("info %s: %v", path, err)
	}
	lines := map[string]string{}
	for _, l := range strings.Split(string(out), "\n") {
		if len(l) > 16 && l[0] != ' ' {
			lines[strings.TrimSpace(l[:16])] = strings.TrimSpace(l[16:])
		}
	}
	return lines
}

// TestInfo: `adstool info` names each kind's parameters — and only its
// own — for a file of every kind, and the partition header of a shard.
func TestInfo(t *testing.T) {
	g := adsketch.PreferentialAttachment(60, 2, 3)
	beta := make([]float64, 60)
	for i := range beta {
		beta[i] = 1 + float64(i%3)
	}
	dir := t.TempDir()
	write := func(name string, w io.WriterTo) string {
		path := filepath.Join(dir, name)
		if _, err := atomicfile.Write(path, w.WriteTo); err != nil {
			t.Fatal(err)
		}
		return path
	}
	build := func(opts ...adsketch.Option) adsketch.SketchSet {
		set, err := adsketch.Build(g, append([]adsketch.Option{adsketch.WithK(4), adsketch.WithSeed(9)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	approx, err := lab.BuildApprox(g, 4, 9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := adsketch.SplitSketchSet(approx, 3)
	if err != nil {
		t.Fatal(err)
	}
	common := map[string]string{"k": "4", "seed": "9", "codec version": "3"}
	for _, tc := range []struct {
		path   string
		want   map[string]string
		absent []string
	}{
		{write("bottomk.ads", build()),
			map[string]string{"kind": "uniform", "base-b": "full precision", "nodes": "60"},
			[]string{"flavor", "scheme", "epsilon", "partition", "node range"}},
		{write("base2.ads", build(adsketch.WithBaseB(2))),
			map[string]string{"kind": "uniform", "base-b": "2"},
			[]string{"flavor", "scheme", "epsilon"}},
		{write("weighted.ads", build(adsketch.WithNodeWeights(beta))),
			map[string]string{"kind": "weighted", "scheme": "exponential"},
			[]string{"flavor", "base-b", "epsilon"}},
		{write("priority.ads", build(adsketch.WithNodeWeights(beta), adsketch.WithPriorityRanks())),
			map[string]string{"kind": "weighted", "scheme": "priority"},
			[]string{"flavor", "base-b", "epsilon"}},
		{write("approx.ads", approx),
			map[string]string{"kind": "approximate", "epsilon": "0.5", "nodes": "60"},
			[]string{"flavor", "base-b", "scheme", "partition"}},
		{write("approx.p1of3.ads", parts[1]),
			map[string]string{"kind": "approximate", "epsilon": "0.5", "partition": "1 of 3",
				"node range": "[20, 40)", "total nodes": "60", "nodes": "20"},
			[]string{"flavor", "scheme"}},
	} {
		got := infoLines(t, tc.path)
		for name, want := range common {
			tc.want[name] = want
		}
		for name, want := range tc.want {
			if got[name] != want {
				t.Errorf("%s: %s %q, want %q", filepath.Base(tc.path), name, got[name], want)
			}
		}
		for _, name := range tc.absent {
			if v, ok := got[name]; ok {
				t.Errorf("%s: prints %s %q", filepath.Base(tc.path), name, v)
			}
		}
	}
}

// TestBuildRefusesEpsWithoutDist: the approximate kind is built by the
// distributed build alone, so `build -eps` without -dist or -workers is
// refused naming both, before the graph is read; and the flags build
// shares with query, top and influence hold no -eps.
func TestBuildRefusesEpsWithoutDist(t *testing.T) {
	err := runBuild([]string{"-graph", filepath.Join(t.TempDir(), "absent.txt"), "-eps", "0.25", "-save", "x.ads"})
	if err == nil || !strings.Contains(err.Error(), "-dist") || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("build -eps without -dist: %v, want a refusal naming -dist and -workers", err)
	}
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	buildFlags(fs)
	if fs.Lookup("eps") != nil {
		t.Error("query, top and influence register -eps")
	}
}
