package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"adsketch/internal/core"
	"adsketch/internal/distbuild"
	"adsketch/internal/graph"
)

// runDistBuild drives a partition-parallel build: P workers — in-process
// with -dist, or remote adsserver -buildworker processes with -workers —
// each construct the sketches of one node range and freeze them straight
// to a partition file.  The output files are byte-identical to `adstool
// build -save` followed by `adstool split`, so they drop into the same
// adsserver -mmap / coordinator serving setup.
func runDistBuild(fs *flag.FlagSet, path string, directed bool, dist int, workers, out string) error {
	if dist != 0 && workers != "" {
		return fmt.Errorf("build: -dist and -workers are mutually exclusive")
	}
	if path == "" || path == "-" {
		return fmt.Errorf("build: a distributed build needs -graph to be a file path every worker can open, not stdin")
	}
	if out == "" {
		return fmt.Errorf("build: a distributed build writes partition files; -out prefix is required")
	}
	var clash []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "baseb", "save":
			clash = append(clash, "-"+f.Name)
		}
	})
	if len(clash) > 0 {
		return fmt.Errorf("build: %s cannot be combined with a distributed build (bottom-k only; -eps and -weights select the kind)",
			strings.Join(clash, ", "))
	}
	get := func(name string) flag.Getter { return fs.Lookup(name).Value.(flag.Getter) }
	k := get("k").Get().(int)
	seed := get("seed").Get().(uint64)
	eps := get("eps").Get().(float64)
	weights := get("weights").Get().(string)
	priority := get("priority").Get().(bool)

	// The driver never loads the graph: one streaming pass finds the
	// node count, then only candidates and frozen bytes move around.
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	maxID, edges := int32(-1), int64(0)
	err = graph.ScanEdges(f, func(u, v int32, w float64, hasW bool) error {
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges++
		return nil
	})
	f.Close()
	if err != nil {
		return err
	}
	if maxID < 0 {
		return fmt.Errorf("build: %s has no edges", path)
	}

	spec := distbuild.Spec{
		Path:     path,
		Directed: directed,
		N:        int(maxID) + 1,
		K:        k,
		Seed:     seed,
		Kind:     distbuild.KindUniform,
	}
	switch {
	case eps >= 0 && weights != "":
		return fmt.Errorf("build: -eps and -weights are mutually exclusive in a distributed build")
	case eps >= 0:
		spec.Kind, spec.Eps = distbuild.KindApprox, eps
	case weights != "":
		spec.Kind, spec.Scheme = distbuild.KindWeighted, core.ExponentialWeights
		if priority {
			spec.Scheme = core.PriorityWeights
		}
		for _, s := range strings.Split(weights, ",") {
			w, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad -weights entry %q: %v", s, err)
			}
			spec.Beta = append(spec.Beta, w)
		}
	case priority:
		return fmt.Errorf("build: -priority needs -weights")
	}

	var exs []distbuild.Exchanger
	var urls []string
	if workers != "" {
		for _, u := range strings.Split(workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		spec.Parts = len(urls)
		exs, err = distbuild.NewHTTPExchangers(spec, urls, &http.Client{Timeout: 5 * time.Minute})
	} else {
		spec.Parts = dist
		exs, err = distbuild.NewLocalExchangers(spec)
	}
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := distbuild.Run(context.Background(), exs)
	if err != nil {
		return err
	}
	transport := "in-process"
	if workers != "" {
		transport = "wire"
	}
	fmt.Printf("distributed %s build (k=%d) of %d nodes / %d edge lines across %d workers (%s): %d rounds, %d candidates, %d entries examined in %v\n",
		spec.Kind, spec.K, spec.N, edges, spec.Parts, transport,
		res.Rounds, res.Candidates, res.Examined, time.Since(start).Round(time.Millisecond))
	for i, b := range res.Partitions {
		name := fmt.Sprintf("%s.p%dof%d.ads", out, i, spec.Parts)
		if err := os.WriteFile(name, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("  %s (%d bytes)\n", name, len(b))
	}
	return nil
}
