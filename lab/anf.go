package lab

import (
	"fmt"

	"adsketch/internal/graph"
	"adsketch/internal/rank"
)

// Approximate neighborhood functions in the style of
// ANF [Palmer et al. 2002] and HyperANF [Boldi, Rosa, Vigna 2011], the
// "limited ADS computation" of Appendix B.1: a synchronous DP that keeps,
// for every node, only the k-partition base-2 MinHash sketch (HyperLogLog
// registers) of its hop-ball, merging neighbor sketches each round.
//
// Two readouts are provided for the per-round ball sizes:
//
//   - Basic: apply the (bias-corrected) HyperLogLog estimator to each
//     node's registers after each round — what ANF/HyperANF originally did;
//   - HIP: maintain a per-node HIP register, adding the inverse update
//     probability whenever a register grows — the acceleration Appendix
//     B.1 proposes ("more accurate estimates can be obtained using the
//     same implementations by applying our HIP estimators instead").
//
// One caveat the tests quantify: register merges batch elements, so when
// several new ball members collide on one register only the maximum
// survives and HIP sees fewer update events than a true element stream
// would, biasing the readout downward on explosive expansions (balls that
// multiply by much more than k per round).  Events are counted
// arc-by-arc — matching the edge-relaxation order of the original
// ANF/HyperANF implementations — which recovers the events that distinct
// neighbors contribute to the same register; only collisions inside a
// single neighbor's sketch remain unobservable.  A streaming HIP counter
// (HIPDistinct) sees every update and is exactly unbiased; the DP readout
// trades that for the O(k) memory per node of the limited computation.

// Readout selects the estimator applied to the per-node registers.
type Readout int

// Readout kinds.
const (
	ANFBasic Readout = iota // HyperLogLog bias-corrected estimate per node
	ANFHIP                  // running HIP register per node
)

func (r Readout) String() string {
	switch r {
	case ANFBasic:
		return "basic"
	case ANFHIP:
		return "HIP"
	}
	return fmt.Sprintf("Readout(%d)", int(r))
}

// ANFResult holds the output of a neighborhood-function computation.
type ANFResult struct {
	// NF[t] estimates the number of ordered pairs (u,v) with d(u,v) <= t
	// hops; NF[len-1] is the plateau (all reachable pairs).
	NF []float64
	// Rounds is the number of DP iterations executed (the hop diameter).
	Rounds int
	// Balls[t][v], when retained, estimates |B_t(v)|; nil unless
	// ANFOptions.KeepBalls.
	Balls [][]float64
}

// ANFOptions configures NeighborhoodFunction.
type ANFOptions struct {
	K         int     // registers per node (>= 2)
	Seed      uint64  // rank source seed
	Readout   Readout // Basic or HIP
	KeepBalls bool    // retain per-node ball estimates per round
	MaxRounds int     // safety cap; 0 means no cap
}

// NeighborhoodFunction runs the register DP on an unweighted graph and
// returns, for every hop count t, the estimated number of ordered pairs
// within distance t.
func NeighborhoodFunction(g *graph.Graph, o ANFOptions) (*ANFResult, error) {
	if o.K < 2 {
		return nil, fmt.Errorf("anf: K = %d, need >= 2", o.K)
	}
	if g.Weighted() {
		return nil, fmt.Errorf("anf: hop-ball DP requires an unweighted graph")
	}
	n := g.NumNodes()
	src := rank.NewSource(o.Seed)
	k := o.K

	// Per-node registers: ball B_0(v) = {v}.
	regs := make([][]uint8, n)
	buckets := make([]int, n)
	exps := make([]uint8, n)
	for v := 0; v < n; v++ {
		regs[v] = make([]uint8, k)
		buckets[v], exps[v] = register(src, int64(v), k)
	}
	hip := make([]float64, n)
	for v := 0; v < n; v++ {
		// The owner is the first stream element: update probability 1.
		hip[v] = 1
		regs[v][buckets[v]] = exps[v]
	}

	readNode := func(v int) float64 {
		if o.Readout == ANFHIP {
			return hip[v]
		}
		return hllEstimate(regs[v])
	}
	readAll := func() float64 {
		total := 0.0
		for v := 0; v < n; v++ {
			total += readNode(v)
		}
		return total
	}

	res := &ANFResult{}
	record := func() {
		res.NF = append(res.NF, readAll())
		if o.KeepBalls {
			ball := make([]float64, n)
			for v := 0; v < n; v++ {
				ball[v] = readNode(v)
			}
			res.Balls = append(res.Balls, ball)
		}
	}
	record() // t = 0

	next := make([][]uint8, n)
	for v := 0; v < n; v++ {
		next[v] = make([]uint8, k)
	}
	scratch := make([]uint8, k)
	for round := 1; ; round++ {
		if o.MaxRounds > 0 && round > o.MaxRounds {
			break
		}
		changed := false
		for v := int32(0); int(v) < n; v++ {
			// Relax arcs sequentially, counting one HIP event per register
			// raise per arc against the advancing pre-event state; regs[v]
			// itself is left untouched so the round stays synchronous.
			nv := next[v]
			copy(nv, regs[v])
			copy(scratch, regs[v])
			ns, _ := g.Neighbors(v)
			for _, u := range ns {
				ru := regs[u]
				for i := 0; i < k; i++ {
					if ru[i] > scratch[i] {
						hip[int(v)] += hipStep(scratch)
						scratch[i] = ru[i]
						changed = true
					}
				}
			}
			copy(nv, scratch)
		}
		if !changed {
			break
		}
		regs, next = next, regs
		res.Rounds = round
		record()
	}
	return res, nil
}

// EffectiveDiameter returns the q-effective diameter implied by the
// estimated neighborhood function (interpolated hop count at which a
// fraction q of the plateau is reached).
func EffectiveDiameter(nf []float64, q float64) float64 {
	if len(nf) == 0 {
		return 0
	}
	total := nf[len(nf)-1]
	target := q * total
	for t, c := range nf {
		if c >= target {
			if t == 0 {
				return 0
			}
			prev := nf[t-1]
			return float64(t-1) + (target-prev)/(c-prev)
		}
	}
	return float64(len(nf) - 1)
}

// HarmonicFromBalls computes HyperBall-style harmonic centralities for all
// nodes from per-round ball estimates (requires ANFOptions.KeepBalls):
// H(v) ~ Σ_t (|B_t(v)| - |B_{t-1}(v)|)/t, the estimated number of nodes
// first reached at hop t, discounted by the distance.
func HarmonicFromBalls(res *ANFResult) []float64 {
	if len(res.Balls) == 0 {
		return nil
	}
	n := len(res.Balls[0])
	out := make([]float64, n)
	for t := 1; t < len(res.Balls); t++ {
		cur, prev := res.Balls[t], res.Balls[t-1]
		for v := 0; v < n; v++ {
			gain := cur[v] - prev[v]
			if gain > 0 {
				out[v] += gain / float64(t)
			}
		}
	}
	return out
}
