// Webdistinct: streaming distinct counting — the Section 6 application.
// A synthetic web-style event stream (page views with heavy repetition)
// is fed to three counters sharing the same memory budget:
//
//   - HyperLogLog (raw and bias-corrected readouts), the classic baseline;
//   - HIP on the very same k-register sketch (Algorithm 3).
//
// The exact distinct count is tracked for comparison; HIP's running
// estimate is consistently tighter, per the paper's Figure 3.
package main

import (
	"fmt"
	"math"

	"adsketch/internal/rank"
	"adsketch/lab"
)

func main() {
	const k = 64 // registers (= HLL with m=64, 5-bit registers)
	hip := lab.NewHIPDistinct(k, 11)
	hllRaw := hip.Sketch() // HIP shares the sketch; HLL reads the registers

	rng := rank.NewRNG(3)
	exact := make(map[int64]struct{})

	fmt.Printf("%12s %12s %12s %12s %12s\n", "events", "distinct", "HLL", "HIP", "HIP err")
	var events int64
	next := int64(1000)
	for events < 5_000_000 {
		events++
		// Heavy-tailed page popularity: ~20% of views hit new pages.
		var page int64
		if rng.Float64() < 0.2 {
			page = rng.Int63() % 10_000_000
		} else {
			page = rng.Int63() % 1000 // hot set
		}
		exact[page] = struct{}{}
		hip.Add(page)

		if events == next {
			next *= 4
			d := float64(len(exact))
			fmt.Printf("%12d %12d %12.0f %12.0f %+11.2f%%\n",
				events, len(exact), hllRaw.Estimate(), hip.Estimate(),
				100*(hip.Estimate()-d)/d)
		}
	}

	d := float64(len(exact))
	fmt.Printf("\nfinal: %d distinct pages in %d events\n", len(exact), events)
	fmt.Printf("  HLL (corrected): %10.0f  (%+.2f%%)\n",
		hllRaw.Estimate(), 100*(hllRaw.Estimate()-d)/d)
	fmt.Printf("  HIP:             %10.0f  (%+.2f%%)\n",
		hip.Estimate(), 100*(hip.Estimate()-d)/d)
	fmt.Printf("\nreference NRMSE at k=%d: HLL ~%.3f, HIP ~%.3f (paper Section 6)\n",
		k, 1.08/math.Sqrt(k), math.Sqrt(3.0/(4*k)))

	// Mergeability: sketches of two sub-streams combine to the union.
	a := lab.NewHyperLogLog(k, 11)
	b := lab.NewHyperLogLog(k, 11)
	for id := int64(0); id < 60000; id++ {
		a.Add(id)
	}
	for id := int64(30000); id < 90000; id++ {
		b.Add(id)
	}
	a.Merge(b)
	fmt.Printf("\nmerge demo: |A|=60000, |B|=60000, |A∪B|=90000, merged estimate %.0f\n",
		a.Estimate())
}
