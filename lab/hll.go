package lab

import (
	"fmt"
	"math"

	"adsketch/internal/rank"
)

// The HyperLogLog approximate distinct counter of Flajolet, Fusy,
// Gandouet and Meunier (2007) — the baseline the paper compares against in
// Section 6 — and the paper's HIP estimator layered on the very same
// sketch (Algorithm 3).
//
// The HLL sketch is a k-partition MinHash sketch with base-2 ranks: k
// 5-bit registers, register i holding the maximum over its bucket of
// ceil(-log2 r(v)), saturating at 31.  The classic estimators read the
// registers at query time (raw harmonic-mean estimate plus bias
// corrections); the HIP estimator instead accumulates inverse update
// probabilities as the sketch is built, which is unbiased, needs no
// corrections, and has NRMSE ~ 0.866/sqrt(k) versus ~ 1.04-1.08/sqrt(k)
// for corrected HLL.

// RegisterCap is the saturation value of a 5-bit HLL register.
const RegisterCap = 31

// HyperLogLog is a HyperLogLog register array.
type HyperLogLog struct {
	k   int
	m   []uint8
	src rank.Source
}

// NewHyperLogLog returns an empty HLL sketch with k registers (k >= 2)
// whose hashes derive from seed.
func NewHyperLogLog(k int, seed uint64) *HyperLogLog {
	if k < 2 {
		panic(fmt.Sprintf("hll: k = %d, need >= 2", k))
	}
	return &HyperLogLog{k: k, m: make([]uint8, k), src: rank.NewSource(seed)}
}

// K returns the number of registers.
func (s *HyperLogLog) K() int { return s.k }

// Registers returns the register values (aliases internal storage).
func (s *HyperLogLog) Registers() []uint8 { return s.m }

// register computes the (bucket, capped exponent) pair of an element.
func register(src rank.Source, id int64, k int) (int, uint8) {
	b := bucket(src, id, k)
	h := base2Exponent(rank.Hash64(src.Seed()^0x1f3d5b79a2c4e688, uint64(id)))
	if h > RegisterCap {
		h = RegisterCap
	}
	return b, uint8(h)
}

// Add folds an element into the sketch and reports whether a register
// grew.  Re-occurrences never modify the sketch.
func (s *HyperLogLog) Add(id int64) bool {
	b, h := register(s.src, id, s.k)
	if h > s.m[b] {
		s.m[b] = h
		return true
	}
	return false
}

// Merge folds another sketch (same k, same seed) into s, giving the
// sketch of the union.
func (s *HyperLogLog) Merge(o *HyperLogLog) {
	if o.k != s.k {
		panic("hll: merging sketches with different k")
	}
	for i, v := range o.m {
		if v > s.m[i] {
			s.m[i] = v
		}
	}
}

// alpha returns the bias-correction constant alpha_m of [Flajolet et al.].
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	// The asymptotic constant; below 16 registers it is a reasonable
	// fallback, as the original analysis starts at m = 16.
	return 0.7213 / (1 + 1.079/float64(m))
}

// RawEstimate returns the uncorrected HLL estimate
// alpha_m * m^2 / sum_i 2^{-M[i]} ("HLLraw" in Figure 3).
func (s *HyperLogLog) RawEstimate() float64 { return hllRaw(s.m) }

func hllRaw(regs []uint8) float64 {
	sum := 0.0
	for _, v := range regs {
		sum += math.Exp2(-float64(v))
	}
	m := float64(len(regs))
	return alpha(len(regs)) * m * m / sum
}

// Estimate returns the bias-corrected HLL estimate from the original
// paper's pseudocode: linear counting when the raw estimate is small and
// empty registers exist.  (The large-range correction of the 32-bit
// original is unnecessary with 64-bit hashing.)
func (s *HyperLogLog) Estimate() float64 { return hllEstimate(s.m) }

// hllEstimate is Estimate over a raw register slice, the readout ANF's
// Basic mode applies per node.
func hllEstimate(regs []uint8) float64 {
	e := hllRaw(regs)
	m := float64(len(regs))
	if e <= 2.5*m {
		zeros := 0
		for _, v := range regs {
			if v == 0 {
				zeros++
			}
		}
		if zeros > 0 {
			return m * math.Log(m/float64(zeros))
		}
	}
	return e
}

// hipStep is the HIP adjusted weight of a register raise against the
// pre-update registers: 1/tau with tau = (1/k) * sum over unsaturated
// registers of 2^{-M[i]} (a fresh element lands in bucket i with
// probability 1/k and exceeds M[i] with probability 2^{-M[i]}); 0 once
// every register saturates.
func hipStep(regs []uint8) float64 {
	sum := 0.0
	for _, v := range regs {
		if v < RegisterCap {
			sum += math.Exp2(-float64(v))
		}
	}
	if sum > 0 {
		return float64(len(regs)) / sum
	}
	return 0
}

// HIPDistinct is the Section 6 / Algorithm 3 counter: the HLL sketch
// augmented with one approximate register c accumulating HIP adjusted
// weights.  Each time a register grows, c grows by the inverse of the
// update's probability (hipStep).  Memory is k registers plus one float;
// NRMSE ~0.87/sqrt(k).
//
// Note the printed Algorithm 3 adds (sum 2^{-M[i]})^{-1}, omitting the 1/k
// bucket-choice factor; the text's derivation (and unbiasedness, which the
// tests verify) requires the k/sum form used here.
type HIPDistinct struct {
	sketch *HyperLogLog
	count  float64
}

// NewHIPDistinct returns a HIP counter over a fresh HLL sketch with k
// registers whose hashes derive from seed.
func NewHIPDistinct(k int, seed uint64) *HIPDistinct {
	return &HIPDistinct{sketch: NewHyperLogLog(k, seed)}
}

// K returns the number of registers.
func (h *HIPDistinct) K() int { return h.sketch.K() }

// Sketch returns the underlying register array (shared, not a copy).
func (h *HIPDistinct) Sketch() *HyperLogLog { return h.sketch }

// Add folds an element in, updating the HIP count when the sketch is
// modified, and reports whether it was.
func (h *HIPDistinct) Add(id int64) bool {
	b, x := register(h.sketch.src, id, h.sketch.k)
	if x <= h.sketch.m[b] {
		return false
	}
	h.count += hipStep(h.sketch.m)
	h.sketch.m[b] = x
	return true
}

// Estimate returns the running HIP distinct-count estimate.  It is
// unbiased until every register saturates (after which the sketch cannot
// change and the estimate, like HLL's, stops growing).
func (h *HIPDistinct) Estimate() float64 { return h.count }

// Saturated reports whether every register has reached the cap.
func (h *HIPDistinct) Saturated() bool {
	for _, v := range h.sketch.m {
		if v < RegisterCap {
			return false
		}
	}
	return true
}

// BaseBHIP generalizes the HIP-on-HLL counter to an arbitrary base b > 1
// (Section 6: "HIP permits us to work with a different base").  Registers
// store h = ceil(-log_b r); smaller bases need more register bits
// (log2 log_b n ~ log2 log2 n + log2 i for b = 2^(1/i)) but reduce the CV
// to ~ sqrt((b+1)/(4(k-1))): base sqrt(2) costs one extra bit per register
// and needs ~20% fewer registers than base 2 for the same error.
type BaseBHIP struct {
	k     int
	base  rank.BaseB
	cap   int
	m     []uint16
	src   rank.Source // bucket assignment
	rsrc  rank.Source // rank values, independent stream
	count float64
}

// NewBaseBHIP returns a HIP counter with k registers over base-b ranks,
// with registers saturating at cap, whose hashes derive from seed.
func NewBaseBHIP(k int, b float64, cap int, seed uint64) *BaseBHIP {
	if k < 2 {
		panic(fmt.Sprintf("hll: k = %d, need >= 2", k))
	}
	if cap < 1 || cap > math.MaxUint16 {
		panic(fmt.Sprintf("hll: register cap %d out of range", cap))
	}
	return &BaseBHIP{
		k:    k,
		base: rank.NewBaseB(b),
		cap:  cap,
		m:    make([]uint16, k),
		src:  rank.NewSource(seed),
		rsrc: rank.NewSource(seed ^ 0x6a09e667f3bcc908),
	}
}

// K returns the number of registers.
func (h *BaseBHIP) K() int { return h.k }

// Base returns the rank base.
func (h *BaseBHIP) Base() float64 { return h.base.Base() }

// VarianceFactor returns (1+b)/2, the paper's back-of-the-envelope factor
// by which base-b discretization inflates the HIP adjusted-weight variance
// (Section 5.6).
func (h *BaseBHIP) VarianceFactor() float64 { return (1 + h.Base()) / 2 }

// Add folds an element in and reports whether a register grew.
func (h *BaseBHIP) Add(id int64) bool {
	b := bucket(h.src, id, h.k)
	x := h.base.Exponent(h.rsrc.Rank(id))
	if x > h.cap {
		x = h.cap
	}
	if x <= int(h.m[b]) {
		return false
	}
	sum := 0.0
	for _, v := range h.m {
		if int(v) < h.cap {
			sum += h.base.Value(int(v))
		}
	}
	if sum > 0 {
		h.count += float64(h.k) / sum
	}
	h.m[b] = uint16(x)
	return true
}

// Estimate returns the running HIP estimate.
func (h *BaseBHIP) Estimate() float64 { return h.count }

// Registers returns the register values.
func (h *BaseBHIP) Registers() []uint16 { return h.m }
