package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServerRefusesOlderFiles: `adsserver -sketches <file>` of an earlier
// release — each committed fixture, version 2 of every kind and the
// retired version-3 layouts, with -mmap and without — exits non-zero
// before it listens, naming adsconvert.  The server runs as this test
// binary re-executed into main.
func TestServerRefusesOlderFiles(t *testing.T) {
	if args := os.Getenv("ADSSERVER_TEST_ARGS"); args != "" {
		os.Args = append([]string{"adsserver"}, strings.Fields(args)...)
		main()
		return
	}
	fixtures, err := filepath.Glob("../../internal/legacy/testdata/*.ads")
	if err != nil || len(fixtures) != 18 {
		t.Fatalf("%d fixtures (%v), want 18", len(fixtures), err)
	}
	for _, path := range fixtures {
		for _, mmap := range []string{"", " -mmap"} {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestServerRefusesOlderFiles$")
			cmd.Env = append(os.Environ(), "ADSSERVER_TEST_ARGS=-addr 127.0.0.1:0 -sketches "+path+mmap)
			out, err := cmd.CombinedOutput()
			cancel()
			if err == nil || !strings.Contains(string(out), "adsconvert") {
				t.Errorf("adsserver -sketches %s%s: %v, output %q; want a non-zero exit naming adsconvert", filepath.Base(path), mmap, err, out)
			}
		}
	}
}

// TestServerRefusesOtherFlavors: `adsserver -sketches <file>` of a k-mins
// or k-partition file the last release to build them wrote, with -mmap
// and without, exits non-zero before it listens, naming the flavor.
func TestServerRefusesOtherFlavors(t *testing.T) {
	if args := os.Getenv("ADSSERVER_TEST_ARGS"); args != "" {
		os.Args = append([]string{"adsserver"}, strings.Fields(args)...)
		main()
		return
	}
	for path, flavor := range map[string]string{
		"../../testdata/kmins_v3_k4.ads":      "k-mins",
		"../../testdata/kpartition_v3_k4.ads": "k-partition",
	} {
		for _, mmap := range []string{"", " -mmap"} {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestServerRefusesOtherFlavors$")
			cmd.Env = append(os.Environ(), "ADSSERVER_TEST_ARGS=-addr 127.0.0.1:0 -sketches "+path+mmap)
			out, err := cmd.CombinedOutput()
			cancel()
			if err == nil || !strings.Contains(string(out), flavor+" sketches") {
				t.Errorf("adsserver -sketches %s%s: %v, output %q; want a non-zero exit naming %s", filepath.Base(path), mmap, err, out, flavor)
			}
		}
	}
}
