package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The bound rule.  A cell needs max(5%, twice the gap between the two
// sets' medians, three times the wider spread); a column's bound is the
// largest need of its cells.  The driver's contract allows no bound
// above boundCap and rejects a benchmark whose same-code spread exceeds
// a bound, so a column with a cell that spreads, or whose medians
// drift, by more than the cap cannot be gated: it is demoted to a
// per-layer metric.  A column that stays inside the cap but needs more
// is kept at the cap and marked tight.  setup_s is the exception: the
// contract requires it, judges it on the drift of its median alone, and
// asks for it to have the widest bound, so it gets the cap.
const (
	boundFloor = 0.05
	boundCap   = 0.25
)

// aaCell is what two sets of same-code runs say about one cell.
type aaCell struct {
	spread [2]float64 // interquartile range over median, per set
	gap    float64    // distance between the two medians over the first
}

func (c aaCell) maxSpread() float64 { return math.Max(c.spread[0], c.spread[1]) }

// columnVerdict applies the bound rule to the cells of one column.
func columnVerdict(name string, cells []aaCell) (bound float64, verdict string) {
	if name == "setup_s" {
		return boundCap, "keep: required, widest bound"
	}
	var need, inside float64
	for _, c := range cells {
		need = math.Max(need, math.Max(2*c.gap, 3*c.maxSpread()))
		inside = math.Max(inside, math.Max(2*c.gap, c.maxSpread()))
	}
	bound = math.Ceil(math.Max(need, boundFloor)*100-1e-9) / 100
	switch {
	case inside > boundCap:
		return bound, "demote"
	case bound > boundCap:
		return boundCap, "keep, tight"
	}
	return bound, "keep"
}

// runAA measures what the same code does to itself: every workload n
// times in each of two interleaved sets (A, B, A, B, ...), every run a
// fresh process with a seed of its own, as the driver runs them.  Per
// cell it prints each set's median and quartiles, the spread
// (interquartile range over median) and the gap between the two
// medians — the two quantities the driver holds against a bound — and,
// for the end-to-end table, per column the bound and verdict of the
// rule above.  With trace 1 the runs are traced and the table is the
// per-layer one, which has no bounds.
func runAA(n int, seconds float64, trace int, logf func(string, ...any)) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				seed := 1 + 2*i + set
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %v\n%s", w.name, seed, err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var out output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					return fmt.Errorf("%s seed %d: result line: %v", w.name, seed, err)
				}
				for name, v := range out.Metrics {
					k := key{w.name, name}
					values[set][k] = append(values[set][k], v.Value)
				}
				logf("aa: run %d/%d set %c %s done", i+1, n, 'A'+set, w.name)
			}
		}
	}

	fmt.Printf("| workload | metric | A median [q1, q3] | B median [q1, q3] | spread A | spread B | gap |\n")
	fmt.Printf("|---|---|---|---|---|---|---|\n")
	columns := make(map[string][]aaCell)
	for _, w := range workloads {
		for _, d := range defs {
			k := key{w.name, d.name}
			var c aaCell
			var med [2]float64
			var cols [2]string
			for set := 0; set < 2; set++ {
				q1, q2, q3 := quartiles(values[set][k])
				med[set] = q2
				if q2 != 0 {
					c.spread[set] = (q3 - q1) / math.Abs(q2)
				}
				cols[set] = fmt.Sprintf("%.6g [%.6g, %.6g]", q2, q1, q3)
			}
			if med[0] != 0 {
				c.gap = math.Abs(med[1]-med[0]) / math.Abs(med[0])
			}
			columns[d.name] = append(columns[d.name], c)
			fmt.Printf("| %s | %s | %s | %s | %.2f%% | %.2f%% | %.2f%% |\n",
				w.name, d.name, cols[0], cols[1], 100*c.spread[0], 100*c.spread[1], 100*c.gap)
		}
	}
	if trace == 1 {
		return nil
	}
	fmt.Printf("\n| metric | widest spread | widest gap | bound | verdict |\n|---|---|---|---|---|\n")
	for _, d := range defs {
		var spread, gap float64
		for _, c := range columns[d.name] {
			spread, gap = math.Max(spread, c.maxSpread()), math.Max(gap, c.gap)
		}
		bound, verdict := columnVerdict(d.name, columns[d.name])
		fmt.Printf("| %s | %.2f%% | %.2f%% | %.2f | %s |\n", d.name, 100*spread, 100*gap, bound, verdict)
	}
	return nil
}
