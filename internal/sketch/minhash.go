// Package sketch names the three MinHash flavors the paper builds on
// (Section 2) — k-mins, bottom-k and k-partition — and holds the classic
// "basic" cardinality estimators of Section 4 as formulas over a sketch's
// minimum ranks.
//
// A MinHash sketch summarizes a subset N of a domain using random ranks
// r(v) ~ U(0,1) shared across all sketches (coordination):
//
//   - k-mins: the minimum rank in each of k independent permutations
//     (sampling k times with replacement);
//   - bottom-k: the k smallest ranks in a single permutation (sampling k
//     times without replacement);
//   - k-partition: elements are hashed into k buckets and the minimum rank
//     of each bucket is kept (one-permutation hashing, the structure
//     HyperLogLog uses).
//
// All-Distances Sketches (package core) extend these to every neighborhood
// N_d(v) at once and apply the formulas here to the MinHash sketch they
// hold of each N_d(v).  The streaming MinHash sketches of plain sets, with
// their HIP counters, are the distinct counters of package lab.
package sketch

import "fmt"

// Flavor identifies a MinHash/ADS sampling scheme.
type Flavor int

// The three sketch flavors of Section 2.
const (
	BottomK Flavor = iota
	KMins
	KPartition
)

func (f Flavor) String() string {
	switch f {
	case BottomK:
		return "bottom-k"
	case KMins:
		return "k-mins"
	case KPartition:
		return "k-partition"
	}
	return fmt.Sprintf("Flavor(%d)", int(f))
}
