package simulate

import (
	"math"

	"adsketch/internal/stats"
	"adsketch/lab"
)

// SizeRow is one row of the Lemma 2.2 ADS-size table.
type SizeRow struct {
	K        int
	N        int
	Measured float64 // mean entries over runs
	Expected float64 // k + k(H_n - H_k)
}

// SizeTable measures mean bottom-k ADS sizes on element streams against
// the Lemma 2.2 formula (experiment E3).
func SizeTable(ks, ns []int, runs int, seed uint64) []SizeRow {
	var rows []SizeRow
	for _, k := range ks {
		for _, n := range ns {
			var total float64
			results := parallelRuns(runs, 0, func(run int) float64 {
				c := lab.NewBottomKDistinct(k, seed+uint64(run)*0x9e3779b97f4a7c15+uint64(k*1000003+n))
				size := 0
				for i := 0; i < n; i++ {
					if c.Add(int64(i)) {
						size++
					}
				}
				return float64(size)
			})
			for _, r := range results {
				total += r
			}
			rows = append(rows, SizeRow{
				K:        k,
				N:        n,
				Measured: total / float64(runs),
				Expected: stats.ExpectedBottomKADSSize(n, k),
			})
		}
	}
	return rows
}

// BaseBRow is one row of the Section 5.6 base-b trade-off table.
type BaseBRow struct {
	K        int
	Base     float64 // 0 means full-precision ranks
	NRMSE    float64 // measured at the plateau cardinality
	Analysis float64 // sqrt((1+b)/(4(k-1))), with b=1 for full precision
}

// BaseBTable measures the plateau NRMSE of HIP distinct counting under
// different rank bases against the (1+b)/2 variance-inflation analysis
// (experiment E6).
func BaseBTable(ks []int, bases []float64, n, runs int, seed uint64) []BaseBRow {
	var rows []BaseBRow
	for _, k := range ks {
		for _, b := range bases {
			accs := parallelRuns(runs, 0, func(run int) float64 {
				s := seed + uint64(run)*0xa24baed4963ee407 + uint64(k)
				var h lab.DistinctCounter
				if b == 0 {
					// Full-precision ranks: bottom-k HIP counter.
					h = lab.NewBottomKDistinct(k, s)
				} else {
					h = lab.NewBaseBHIP(k, b, 4096, s)
				}
				for i := 0; i < n; i++ {
					h.Add(int64(i))
				}
				return h.Estimate()
			})
			acc := stats.NewErrAccum(float64(n))
			for _, e := range accs {
				acc.Add(e)
			}
			analysisBase := b
			if analysisBase == 0 {
				analysisBase = 1
			}
			rows = append(rows, BaseBRow{
				K:        k,
				Base:     b,
				NRMSE:    acc.NRMSE(),
				Analysis: stats.HIPBaseBCV(k, analysisBase),
			})
		}
	}
	return rows
}

// ConstantRow is one row of the Section 6 asymptotic-constant table.
type ConstantRow struct {
	K        int
	HLLConst float64 // plateau NRMSE x sqrt(k), paper: ~1.04-1.08
	HIPConst float64 // plateau NRMSE x sqrt(k), paper: ~0.866
	Ratio    float64 // HLL/HIP, paper: ~1.25
	PaperHLL float64
	PaperHIP float64
}

// HLLConstantsTable measures the NRMSE constants of bias-corrected HLL and
// HIP at a plateau cardinality (experiment E5).
func HLLConstantsTable(ks []int, n, runs int, seed uint64) []ConstantRow {
	var rows []ConstantRow
	for _, k := range ks {
		type pair struct{ hll, hip float64 }
		results := parallelRuns(runs, 0, func(run int) pair {
			h := lab.NewHIPDistinct(k, seed+uint64(run)*2862933555777941757+uint64(k))
			for i := 0; i < n; i++ {
				h.Add(int64(i))
			}
			return pair{hll: h.Sketch().Estimate(), hip: h.Estimate()}
		})
		hllAcc := stats.NewErrAccum(float64(n))
		hipAcc := stats.NewErrAccum(float64(n))
		for _, p := range results {
			hllAcc.Add(p.hll)
			hipAcc.Add(p.hip)
		}
		sq := math.Sqrt(float64(k))
		rows = append(rows, ConstantRow{
			K:        k,
			HLLConst: hllAcc.NRMSE() * sq,
			HIPConst: hipAcc.NRMSE() * sq,
			Ratio:    hllAcc.NRMSE() / hipAcc.NRMSE(),
			PaperHLL: 1.08,
			PaperHIP: math.Sqrt(3.0 / 4),
		})
	}
	return rows
}
