// figures regenerates every table and figure of the paper's evaluation as
// tab-separated series on stdout.
//
// Usage:
//
//	figures fig2    -k 10 -runs 500 -maxn 10000 -metric nrmse
//	figures fig3    -k 16 -runs 5000 -maxn 1000000 -metric mre
//	figures size    -runs 400
//	figures baseb   -runs 300
//	figures hllconst -runs 500
//	figures anf     -n 2000 -k 64
//	figures graphq  -n 2000 -k 16 -d 3
//
// The paper's exact parameters are the defaults for fig2/fig3 panel rows
// when -k is given (runs per Figure 2: k=5:1000, k=10:500, k=50:250 with
// maxn 10000/10000/50000; Figure 3: k=16/32:5000 runs, k=64:2000, maxn
// 10^6).  Smaller -runs values reproduce the same curves with more noise.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"adsketch"
	"adsketch/internal/simulate"
	"adsketch/internal/stats"
	"adsketch/lab"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, usage)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

const usage = "usage: figures {fig2|fig3|size|baseb|hllconst|anf|graphq} [flags]"

var errUsage = errors.New(usage)

// run executes one subcommand, args[0], writing its series to w.
func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	cmds := map[string]func([]string, io.Writer) error{
		"fig2":     runFig2,
		"fig3":     runFig3,
		"size":     runSize,
		"baseb":    runBaseB,
		"hllconst": runHLLConst,
		"anf":      runANF,
		"graphq":   runGraphQ,
	}
	cmd, ok := cmds[args[0]]
	if !ok {
		return errUsage
	}
	return cmd(args[1:], w)
}

func metricFlag(fs *flag.FlagSet) *string {
	return fs.String("metric", "nrmse", "nrmse, mre, or bias")
}

func parseMetric(s string) (stats.Metric, error) {
	switch s {
	case "nrmse":
		return stats.NRMSE, nil
	case "mre":
		return stats.MRE, nil
	case "bias":
		return stats.Bias, nil
	}
	return 0, fmt.Errorf("unknown metric %q", s)
}

// paper defaults for Figure 2 rows.
func fig2Defaults(k int) (runs, maxn int) {
	switch k {
	case 5:
		return 1000, 10000
	case 10:
		return 500, 10000
	case 50:
		return 250, 50000
	}
	return 500, 10000
}

func runFig2(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fig2", flag.ExitOnError)
	k := fs.Int("k", 10, "sketch parameter (paper: 5, 10, 50)")
	runs := fs.Int("runs", 0, "randomizations (0 = paper default for k)")
	maxn := fs.Int("maxn", 0, "max cardinality (0 = paper default for k)")
	seed := fs.Uint64("seed", 42, "base seed")
	metric := metricFlag(fs)
	fs.Parse(args)
	m, err := parseMetric(*metric)
	if err != nil {
		return err
	}
	dr, dn := fig2Defaults(*k)
	if *runs == 0 {
		*runs = dr
	}
	if *maxn == 0 {
		*maxn = dn
	}
	panel := simulate.Figure2(simulate.Fig2Config{
		K: *k, MaxN: *maxn, Runs: *runs, Seed: *seed,
	})
	if err := panel.WriteTSV(w, m); err != nil {
		return err
	}
	fmt.Fprintf(w, "# reference: basic CV UB = %.4f, HIP CV UB = %.4f, basic MRE UB = %.4f, HIP MRE UB = %.4f\n",
		stats.BasicCV(*k), stats.HIPCV(*k), stats.BasicMRE(*k), stats.HIPMRE(*k))
	return nil
}

func runFig3(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fig3", flag.ExitOnError)
	k := fs.Int("k", 16, "registers (paper: 16, 32, 64)")
	runs := fs.Int("runs", 0, "randomizations (0 = paper default for k)")
	maxn := fs.Int("maxn", 1000000, "max cardinality")
	seed := fs.Uint64("seed", 5, "base seed")
	metric := metricFlag(fs)
	fs.Parse(args)
	m, err := parseMetric(*metric)
	if err != nil {
		return err
	}
	if *runs == 0 {
		if *k >= 64 {
			*runs = 2000
		} else {
			*runs = 5000
		}
	}
	panel := simulate.Figure3(simulate.Fig3Config{
		K: *k, MaxN: *maxn, Runs: *runs, Seed: *seed,
	})
	if err := panel.WriteTSV(w, m); err != nil {
		return err
	}
	fmt.Fprintf(w, "# reference: HIP base-2 CV analysis = %.4f\n", stats.HIPBaseBCV(*k, 2))
	return nil
}

func runSize(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("size", flag.ExitOnError)
	runs := fs.Int("runs", 400, "randomizations")
	seed := fs.Uint64("seed", 3, "base seed")
	fs.Parse(args)
	rows := simulate.SizeTable(
		[]int{1, 5, 10, 50},
		[]int{100, 1000, 10000, 100000},
		*runs, *seed)
	fmt.Fprintln(w, "# Lemma 2.2: expected bottom-k ADS size = k + k(H_n - H_k)")
	fmt.Fprintln(w, "k\tn\tmeasured\texpected\trel.err")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%.2f\t%+.3f%%\n",
			r.K, r.N, r.Measured, r.Expected, 100*(r.Measured-r.Expected)/r.Expected)
	}
	return nil
}

func runBaseB(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("baseb", flag.ExitOnError)
	runs := fs.Int("runs", 300, "randomizations")
	n := fs.Int("n", 20000, "plateau cardinality")
	seed := fs.Uint64("seed", 11, "base seed")
	fs.Parse(args)
	rows := simulate.BaseBTable(
		[]int{16, 64},
		[]float64{0, math.Pow(2, 0.25), math.Sqrt2, 2},
		*n, *runs, *seed)
	fmt.Fprintln(w, "# Section 5.6: HIP CV with base-b ranks ~ sqrt((1+b)/(4(k-1)))")
	fmt.Fprintln(w, "k\tbase\tNRMSE\tanalysis\tratio")
	for _, r := range rows {
		base := "full"
		if r.Base != 0 {
			base = fmt.Sprintf("%.4g", r.Base)
		}
		fmt.Fprintf(w, "%d\t%s\t%.4f\t%.4f\t%.3f\n",
			r.K, base, r.NRMSE, r.Analysis, r.NRMSE/r.Analysis)
	}
	return nil
}

func runHLLConst(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hllconst", flag.ExitOnError)
	runs := fs.Int("runs", 500, "randomizations")
	n := fs.Int("n", 100000, "plateau cardinality")
	seed := fs.Uint64("seed", 13, "base seed")
	fs.Parse(args)
	rows := simulate.HLLConstantsTable([]int{16, 32, 64}, *n, *runs, *seed)
	fmt.Fprintln(w, "# Section 6: NRMSE constants (x sqrt(k)); paper: HLL ~1.08, HIP ~0.866, ratio ~1.25")
	fmt.Fprintln(w, "k\tHLLxsqrt(k)\tHIPxsqrt(k)\tratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\n", r.K, r.HLLConst, r.HIPConst, r.Ratio)
	}
	return nil
}

func runANF(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("anf", flag.ExitOnError)
	n := fs.Int("n", 2000, "nodes")
	k := fs.Int("k", 64, "registers per node")
	seed := fs.Uint64("seed", 17, "seed")
	fs.Parse(args)
	g := adsketch.WattsStrogatz(*n, 6, 0.05, *seed)
	exact := lab.ExactNeighborhoodFunction(g)
	basic, err := lab.NeighborhoodFunction(g, lab.ANFOptions{K: *k, Seed: *seed, Readout: lab.ANFBasic})
	if err != nil {
		return err
	}
	hip, err := lab.NeighborhoodFunction(g, lab.ANFOptions{K: *k, Seed: *seed, Readout: lab.ANFHIP})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Appendix B.1: neighborhood function, basic vs HIP readout")
	fmt.Fprintln(w, "hops\texact\tbasic\tHIP")
	for t := range exact {
		b, h := last(basic.NF, t), last(hip.NF, t)
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%.0f\n", t, exact[t], b, h)
	}
	exactNF := make([]float64, len(exact)) // counts below 2⁵³: exact
	for t, c := range exact {
		exactNF[t] = float64(c)
	}
	fmt.Fprintf(w, "# effective diameter (0.9): exact %.2f, basic %.2f, HIP %.2f\n",
		lab.EffectiveDiameter(exactNF, 0.9),
		lab.EffectiveDiameter(basic.NF, 0.9),
		lab.EffectiveDiameter(hip.NF, 0.9))
	return nil
}

func last(nf []float64, t int) float64 {
	if t >= len(nf) {
		t = len(nf) - 1
	}
	return nf[t]
}

// runGraphQ measures per-node HIP estimate quality on a generated graph —
// the graph-side counterpart of the Figure 2 cardinality panels: mean
// relative error of |N_d(v)| and closeness over sampled nodes, served by
// the batch Engine against exact traversal answers.
func runGraphQ(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("graphq", flag.ExitOnError)
	n := fs.Int("n", 2000, "nodes (preferential attachment, m=4)")
	k := fs.Int("k", 16, "sketch parameter")
	d := fs.Float64("d", 3, "neighborhood radius")
	seed := fs.Uint64("seed", 7, "seed")
	sample := fs.Int("sample", 200, "sampled query nodes")
	fs.Parse(args)
	g := adsketch.PreferentialAttachment(*n, 4, *seed)
	set, err := adsketch.Build(g, adsketch.WithK(*k), adsketch.WithSeed(*seed))
	if err != nil {
		return err
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		return err
	}
	if *sample > *n {
		*sample = *n
	}
	nodes := make([]int32, *sample)
	for i := range nodes {
		nodes[i] = int32(i * *n / *sample)
	}
	ctx := context.Background()
	sizes, err := eng.NeighborhoodSizes(ctx, *d, nodes...)
	if err != nil {
		return err
	}
	clos, err := eng.Closeness(ctx, nodes...)
	if err != nil {
		return err
	}
	var mreN, mreC float64
	for i, v := range nodes {
		if exact := float64(lab.ExactNeighborhoodSize(g, v, *d)); exact > 0 {
			mreN += math.Abs(sizes[i]-exact) / exact
		}
		if exact := lab.ExactCloseness(g, v); exact > 0 {
			mreC += math.Abs(clos[i]-exact) / exact
		}
	}
	mreN /= float64(len(nodes))
	mreC /= float64(len(nodes))
	fmt.Fprintln(w, "# per-node HIP estimate quality on a BA graph (batch Engine vs exact)")
	fmt.Fprintln(w, "k\td\tsample\tMRE(|N_d|)\tMRE(closeness)\tref HIP CV")
	fmt.Fprintf(w, "%d\t%g\t%d\t%.4f\t%.4f\t%.4f\n",
		*k, *d, len(nodes), mreN, mreC, stats.HIPCV(*k))
	return nil
}
