package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxSegments caps how many slices a phase's sample is cut into.
const maxSegments = 10

// segmentPercentiles cuts xs, in arrival order, into up to maxSegments
// equal-count segments of at least minSamples each and returns the p-th
// percentile of every segment.  A p99 wants minSamples = 1000, so that
// ten samples lie beyond it; a median is sound on a tenth of that.
// Fewer than 2*minSamples samples are one segment.
func segmentPercentiles(xs []float64, p float64, minSamples int) []float64 {
	if len(xs) == 0 {
		return nil
	}
	segments := min(max(len(xs)/minSamples, 1), maxSegments)
	vals := make([]float64, segments)
	for s := range vals {
		lo, hi := s*len(xs)/segments, (s+1)*len(xs)/segments
		vals[s] = percentile(sortedCopy(xs[lo:hi]), p)
	}
	return vals
}

// quartiles returns the first quartile, median, and third quartile of xs
// by the exclusive method — what Python's statistics.quantiles(xs, n=4)
// returns, which is what the driver uses to judge run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// nrmse is sqrt(mean(((est-exact)/exact)^2)) over the pairs with a
// non-zero exact value.
func nrmse(est, exact []float64) float64 {
	var sum float64
	var n int
	for i := range est {
		if exact[i] == 0 {
			continue
		}
		r := (est[i] - exact[i]) / exact[i]
		sum += r * r
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}
