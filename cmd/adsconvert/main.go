// adsconvert rewrites a sketch file of an earlier release — version 2, or
// an older version-3 layout; a whole set or a partition — in the current
// layout, the one every writer emits and the serving binaries read:
//
//	adsconvert -sketches old-release.ads -out sketches.ads
//	adsconvert -sketches old-weighted.ads -seed 42 -out sketches.ads
//
// The file is read and validated by the decoder of the older layouts
// (internal/legacy), which no serving binary links, so stored ranks are
// checked against the seed that derives them: the one the file records, or
// -seed for a weighted or approximate file that stores its ranks, which
// records none.  A -seed that contradicts a recorded seed is an error, and
// a refused file writes nothing.  On a file of the current layout it is
// the identity.  The output replaces -out whole (a temporary file renamed
// over it), so a file a server has mapped is never changed under it.
package main

import (
	"flag"
	"fmt"
	"os"

	"adsketch/internal/atomicfile"
	"adsketch/internal/core"
	"adsketch/internal/legacy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adsconvert:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adsconvert", flag.ExitOnError)
	in := fs.String("sketches", "", "sketch file to convert (required; v2 or v3, whole set or partition)")
	out := fs.String("out", "", "output v3 sketch file (required)")
	seed := fs.Uint64("seed", 0, "rank seed the file was built with: required for a weighted or approximate file that stores its ranks, and checked against the seed any other file records")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("-sketches and -out are required")
	}
	var given *uint64
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			given = seed
		}
	})
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	set, err := legacy.Read(f, given)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	n, err := atomicfile.Write(*out, set.WriteTo)
	if err != nil {
		return err
	}
	fmt.Printf("converted %s -> %s (%d bytes, format v%d, seed %d)\n", *in, *out, n, core.EncodeVersion, set.Params().Seed)
	return nil
}
