// Command bench is the repository's benchmark: four workloads that walk
// the pipeline — edge list, Build, v3 file, mmap, HIP index, Engine,
// catalog, wire, HTTP hop, scatter — end to end, each printing the
// end-to-end metrics of BENCHMARK.json (or, with -trace 1, the
// per-layer ones) after checking that the program's answers are
// correct.  See README.md in this directory.
//
//	go run ./bench -workload serve_point -seed 1 -seconds 18 -trace 0
//	go run ./bench -aa 10        # same-code noise table for the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured window
// the workload sizes were calibrated for.
const defaultSeconds = 20

// workParent is where runs put their work directories: inside the
// checkout, ignored by git.
const workParent = ".bench_work"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	runtime.GOMAXPROCS(benchProcs)
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of every generated input: graph, request stream, sample nodes")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "with -trace 1: also write the recorded spans to this file as JSON")
	aa := fs.Int("aa", 0, "run every workload this many times in each of two interleaved sets and print the same-code noise table (with -trace 1: of the per-layer metrics)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...) }
	badFlags := *seconds <= 0 || (*trace != 0 && *trace != 1)
	if *aa > 0 && !badFlags {
		if err := runAA(*aa, *seconds, *trace, logf); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil || badFlags {
		logf("want -workload one of %s, -seconds > 0, -trace 0 or 1", strings.Join(workloadNames(), ", "))
		return 2
	}

	e, err := newEnv(workParent, logf)
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer e.cleanup()
	// A killed benchmark must not leave servers or files behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	c := config{seed: *seed, seconds: *seconds, sz: w.sz}
	if *trace == 1 {
		c.tr = newTracer()
	}
	logf("provenance %s", provenance(w.name, c))
	line, err := measure(e, w, c)
	if err == nil && *spans != "" {
		err = c.tr.writeFile(*spans)
	}
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	fmt.Println(line)
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// outputValue is one metric of the result line.
type outputValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line: the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]outputValue `json:"metrics"`
}

// measure runs the workload once and renders the result line.  Any
// failed correctness check or failed operation is an error: the run
// then prints no result at all rather than a number that cannot be
// trusted.
func measure(e *env, w *workload, c config) (string, error) {
	r := newResult()
	if err := w.run(e, c, r); err != nil {
		return "", err
	}
	return render(e, c, r)
}

// render makes the result line of a finished run: the end-to-end table
// of an untraced run, the per-layer table of a traced one.
func render(e *env, c config, r *result) (string, error) {
	if r.failed > 0 {
		return "", fmt.Errorf("%d of %d operations failed", r.failed, r.attempted)
	}
	defs := endToEnd
	if c.tr != nil {
		defs = perLayer
	} else {
		// The demoted end-to-end timings are measured all the same: say
		// what they were.
		for _, d := range perLayer {
			if v, ok := r.metrics[d.name]; ok && strings.HasPrefix(d.name, "e2e.") {
				e.log("not gated: %s = %.6g %s", d.name, v, d.unit)
			}
		}
	}
	out := output{Correct: true, Attempted: r.attempted, Metrics: make(map[string]outputValue, len(defs))}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && c.tr == nil {
			return "", fmt.Errorf("workload did not measure %s", d.name)
		}
		out.Metrics[d.name] = outputValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	return string(line), err
}

// provenance describes where and on what a number was measured.
func provenance(workload string, c config) string {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	p, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": c.seed, "seconds": c.seconds, "trace": c.tr != nil,
		"commit": commit, "go": runtime.Version(), "cpu": cpu,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	})
	return string(p)
}
