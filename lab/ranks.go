package lab

import (
	"math/bits"

	"adsketch/internal/rank"
)

// The ranks of lab's own sketches beyond the one permutation a
// rank.Source serves: the k independent permutations of the k-mins
// flavor, the buckets of the k-partition flavor and of the HyperLogLog
// registers, and those registers' base-2 exponents.

// rankAt returns the rank of element v under the perm-th independent
// permutation of src — k-mins sketches use permutations 0..k-1 — which is
// the one permutation of seed src.Seed() + perm·0xa24baed4963ee407 + 1
// (BuildKMins builds with those seeds).
func rankAt(src rank.Source, perm int, v int64) float64 {
	return rank.NewSource(src.Seed() + uint64(perm)*0xa24baed4963ee407 + 1).Rank(v)
}

// bucket maps element v uniformly to one of k buckets: the random
// partition BUCKET: V -> [k] of the k-partition sketches, a hash stream
// independent of the ranks, reduced by multiply-shift (no modulo bias for
// any k).
func bucket(src rank.Source, v int64, k int) int {
	if k <= 1 {
		return 0
	}
	hi, _ := bits.Mul64(rank.Hash64(src.Seed()^0x5851f42d4c957f2d, uint64(v)), uint64(k))
	return int(hi)
}

// base2Exponent is the base-2 exponent ceil(-log2 r) of the rank r a
// uint64 hash maps to, in integer arithmetic: the number of leading zero
// bits plus one, the geometric observable of HyperLogLog registers.  It
// matches rank.NewBaseB(2).Exponent on those ranks.
func base2Exponent(hash uint64) int { return bits.LeadingZeros64(hash) + 1 }
